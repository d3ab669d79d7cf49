// Package cliflags is the shared scaffold of the omnc command-line tools:
// an App that owns flag parsing, -version, profiling and interrupt-aware
// context plumbing, plus the two flag groups every tool shares, bound
// straight to the fields of the jobs.Spec the command owns. A command seeds
// that Spec from jobs.Defaults, so a flag's -h default is whatever the Spec
// field holds when the flag is registered — the defaults table, read once.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"omnc/internal/buildinfo"
	"omnc/internal/jobs"
	"omnc/internal/metrics"
	"omnc/internal/profiling"
)

// App is one CLI's shared scaffold. Construct with New before defining
// command-specific flags, then hand main's body to Main.
type App struct {
	// Name prefixes error output ("omnc-sim: ...").
	Name string

	version *bool
	prof    *profiling.Flags
}

// New registers the scaffold's flags (-version plus the profiling block) on
// fs and returns the App. Pass flag.CommandLine from a real main.
func New(name string, fs *flag.FlagSet) *App {
	return &App{
		Name:    name,
		version: fs.Bool("version", false, "print build information and exit"),
		prof:    profiling.RegisterFlags(fs),
	}
}

// Main parses the command line and executes run with the full scaffold:
// -version short-circuits to build info; profiling starts and stops around
// the run; SIGINT/SIGTERM cancel run's context so every tool drains the same
// way. It exits the process with the run's status.
func (a *App) Main(run func(ctx context.Context) error) {
	flag.Parse()
	os.Exit(a.RunParsed(run))
}

// RunParsed is Main after flag parsing — separated so tests can drive the
// scaffold without exiting the process.
func (a *App) RunParsed(run func(ctx context.Context) error) int {
	if *a.version {
		fmt.Println(buildinfo.Collect())
		return 0
	}
	stopProf, err := a.prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx)
	stop()
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
		return 1
	}
	return 0
}

// Coding binds the -scheme/-redundancy/-field block every tool shares to
// the Spec. The scheme and redundancy usage strings vary slightly per tool,
// so the caller supplies them; -field reads the same everywhere.
func Coding(fs *flag.FlagSet, s *jobs.Spec, schemeUsage, redundancyUsage string) {
	fs.StringVar(&s.Scheme, "scheme", s.Scheme, schemeUsage)
	fs.Float64Var(&s.Redundancy, "redundancy", s.Redundancy, redundancyUsage)
	fs.StringVar(&s.Field, "field", s.Field, "coefficient field: 8 (GF(2^8), the paper's) or 16 (GF(2^16))")
}

// Pool binds the -workers/-engine-workers block to the Spec. engine controls
// whether the tool exposes -engine-workers (omnc-drift's loopback sessions
// have no event engine to parallelize).
func Pool(fs *flag.FlagSet, s *jobs.Spec, engine bool) {
	fs.IntVar(&s.Workers, "workers", s.Workers, "concurrent session emulations (0 = all cores, 1 = serial); results are identical either way")
	if engine {
		fs.IntVar(&s.EngineWorkers, "engine-workers", s.EngineWorkers, "parallel event-engine workers per session (0 = serial engine); results are identical either way")
	}
}

// StartProgressTicker reports sweep progress to stderr every five seconds
// until the returned stop func is called. A nil Progress returns a no-op.
func StartProgressTicker(name string, p *metrics.Progress) func() {
	if p == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				fmt.Fprintf(os.Stderr, "%s: %s done\n", name, p)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
