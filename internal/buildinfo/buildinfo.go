// Package buildinfo reports what binary is running and on what hardware:
// the Go toolchain, the module version and VCS revision when the binary was
// built from a checkout, and the machine's CPU count. Every CLI surfaces it
// behind -version and omnc-serve behind GET /healthz, so experiment results
// stay attributable to the build and machine that produced them.
package buildinfo

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info identifies the running build and its host.
type Info struct {
	// Module is the main module path ("omnc").
	Module string `json:"module"`
	// Version is the main module version ("(devel)" for checkouts).
	Version string `json:"version"`
	// Revision and Dirty come from the VCS stamp when present.
	Revision string `json:"revision,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// CPUs is runtime.NumCPU(): what any parallel speed-up is read against.
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the scheduler's current parallelism bound.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Collect gathers the build metadata embedded by the Go linker plus the
// host's CPU counts. It never fails: binaries without embedded build info
// (some test binaries) just leave the module fields blank.
func Collect() Info {
	info := Info{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Module = bi.Main.Path
	info.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// String renders the one-line form the CLIs print for -version.
func (i Info) String() string {
	rev := i.Revision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if i.Dirty {
		rev += "-dirty"
	}
	mod := i.Module
	if mod == "" {
		mod = "omnc"
	}
	return fmt.Sprintf("%s %s (rev %s, %s, %d cpus)", mod, i.Version, rev, i.GoVersion, i.CPUs)
}

// JSON renders the info as indented JSON (the /healthz payload embeds it).
func (i Info) JSON() []byte {
	buf, err := json.MarshalIndent(i, "", "  ")
	if err != nil {
		// Info is a plain struct of marshalable fields; this cannot happen.
		panic(fmt.Sprintf("buildinfo: marshal: %v", err))
	}
	return append(buf, '\n')
}
