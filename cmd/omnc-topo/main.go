// Command omnc-topo generates and inspects the random lossy deployments the
// experiments run on: node placement, degree and link-quality statistics,
// and an optional CSV dump of the link set.
//
// Usage:
//
//	omnc-topo -nodes 300 -density 6 -seed 1
//	omnc-topo -quality 0.91 -links links.csv
//
// The deployment itself comes from internal/jobs (kind "topo") — the same
// Spec an omnc-serve job would run — so the CSV written here is byte
// identical to the daemon's landed links.csv artifact. The degree and
// reachability statistics are display-only and computed here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"omnc/internal/cliflags"
	"omnc/internal/graph"
	"omnc/internal/jobs"
	"omnc/internal/metrics"
	"omnc/internal/topology"
)

// flags is omnc-topo's command line: the topo Spec its flags are bound to
// and the two output paths.
type flags struct {
	spec       jobs.Spec
	links, svg string
}

// register binds omnc-topo's flags to a topo Spec seeded from the defaults
// table.
func register(fs *flag.FlagSet) *flags {
	f := &flags{spec: jobs.Defaults(jobs.KindTopo, false)}
	s := &f.spec
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "deployment size")
	fs.Float64Var(&s.Density, "density", s.Density, "expected nodes per range disk")
	fs.Int64Var(&s.Seed, "seed", 1, "deployment seed")
	fs.Float64Var(&s.MeanQuality, "quality", s.MeanQuality, "target mean link quality (0 = default lossy)")
	fs.StringVar(&f.links, "links", "", "write the directed link set as CSV to this path")
	fs.StringVar(&f.svg, "svg", "", "render the deployment as SVG to this path")
	cliflags.Coding(fs, s,
		"coding scheme the deployment is inspected for: rlnc, rlnc-e2e or rs (validated and echoed)",
		"source emission cap as a factor of the generation size (0 = rateless; validated and echoed)")
	return f
}

func main() {
	f := register(flag.CommandLine)
	cliflags.New("omnc-topo", flag.CommandLine).Main(f.run)
}

func (f *flags) run(ctx context.Context) error {
	return run(ctx, f.spec, f.links, f.svg)
}

func run(ctx context.Context, spec jobs.Spec, linksPath, svgPath string) error {
	res, err := jobs.Run(ctx, spec)
	if err != nil {
		return err
	}
	nw := res.Network
	// The Spec vetted the scheme; its mapped form is echoed in the summary
	// line with its recoding behaviour.
	cfg := spec.Config()

	var degrees, qualities []float64
	linkCount := 0
	for i := 0; i < nw.Size(); i++ {
		ns := nw.Neighbors(i)
		degrees = append(degrees, float64(len(ns)))
		for _, j := range ns {
			qualities = append(qualities, nw.Prob(i, j))
			linkCount++
		}
	}
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	hops := graph.HopCounts(adj, 0)
	reachable, maxHops := 0, 0
	for _, h := range hops {
		if h >= 0 {
			reachable++
			if h > maxHops {
				maxHops = h
			}
		}
	}

	fmt.Printf("nodes:               %d\n", nw.Size())
	fmt.Printf("directed links:      %d\n", linkCount)
	fmt.Printf("range:               %.0f m (reception probability %.2f)\n",
		nw.PHYModel().Range, 0.2)
	fmt.Printf("degree:              %s\n", metrics.Summarize(degrees))
	fmt.Printf("link quality:        %s\n", metrics.Summarize(qualities))
	fmt.Printf("reachable from 0:    %d/%d (max %d hops)\n", reachable, nw.Size(), maxHops)
	relays := "relays re-encode"
	if !cfg.Scheme.Recodes() {
		relays = "relays forward verbatim"
	}
	redLabel := "rateless"
	if cfg.Redundancy > 0 {
		redLabel = fmt.Sprintf("%.2fx", cfg.Redundancy)
	}
	fmt.Printf("coding scheme:       %s (%s), redundancy %s\n", cfg.Scheme, relays, redLabel)

	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		if err := nw.RenderSVG(f, topology.SVGOptions{ShowLinks: true, Src: -1, Dst: -1}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgPath)
	}

	if linksPath == "" {
		return nil
	}
	art := res.Artifact("links.csv")
	if art == nil {
		return fmt.Errorf("topo run produced no link artifact")
	}
	if err := os.WriteFile(linksPath, art.Data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", linksPath)
	return nil
}
