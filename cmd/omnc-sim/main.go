// Command omnc-sim emulates a single unicast session on a random lossy
// wireless network and prints its statistics — a microscope for one
// protocol run, where omnc-fig aggregates hundreds.
//
// Usage:
//
//	omnc-sim -proto omnc                 # random session, OMNC
//	omnc-sim -proto more -seed 7         # same session, MORE
//	omnc-sim -src 12 -dst 91 -proto etx  # explicit endpoints
//	omnc-sim -trials 16 -workers 4       # 16 loss realizations, 4 at a time
//	omnc-sim -report out.json            # per-node/per-link observability report
//	omnc-sim -cpuprofile cpu.prof        # profile the run (also -memprofile, -pprof-http)
//
// The session runs through internal/jobs (kind "session"), the same
// dispatcher omnc-serve uses, so any omnc-sim invocation is reproducible by
// POSTing the equivalent Spec to a daemon; the seed streams are shared, so
// the numbers come out identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"omnc"
	"omnc/internal/cliflags"
	"omnc/internal/jobs"
	"omnc/internal/metrics"
	"omnc/internal/topology"
)

// flags is omnc-sim's command line: the session Spec its flags are bound
// to, plus the few values the flag surface spells differently.
type flags struct {
	spec jobs.Spec
	// src and dst spell "random endpoints" -1; the Spec spells it nil.
	src, dst int
	// svg and report are output paths, faults an input path; the Spec
	// carries the decoded plan and whether a report was asked for.
	svg, faults, report string
}

// register binds omnc-sim's flags to a session Spec seeded from the defaults
// table, so -h shows exactly the values a minimal Spec would run with.
func register(fs *flag.FlagSet) *flags {
	f := &flags{spec: jobs.Defaults(jobs.KindSession, false)}
	s := &f.spec
	fs.StringVar(&s.Protocol, "proto", s.Protocol, "protocol: omnc, more, oldmore, etx")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "deployment size")
	fs.Float64Var(&s.Density, "density", s.Density, "expected nodes per range disk")
	fs.Int64Var(&s.Seed, "seed", 1, "topology and session seed")
	fs.IntVar(&f.src, "src", -1, "source node (-1 = random with hop constraint)")
	fs.IntVar(&f.dst, "dst", -1, "destination node (-1 = random with hop constraint)")
	fs.IntVar(&s.MinHops, "min-hops", s.MinHops, "minimum hop distance for random endpoints")
	fs.IntVar(&s.MaxHops, "max-hops", s.MaxHops, "maximum hop distance for random endpoints")
	fs.Float64Var(&s.Duration, "duration", s.Duration, "emulated seconds")
	fs.Float64Var(&s.Capacity, "capacity", s.Capacity, "channel capacity (bytes/s)")
	fs.Float64Var(&s.CBRRate, "cbr", s.CBRRate, "CBR workload rate (bytes/s, 0 = backlogged)")
	fs.Float64Var(&s.MeanQuality, "quality", s.MeanQuality, "target mean link quality (0 = default lossy)")
	fs.StringVar(&f.svg, "svg", "", "render the session's forwarder subgraph as SVG to this path")
	fs.IntVar(&s.Trials, "trials", s.Trials, "independent loss realizations of the same session")
	fs.StringVar(&f.faults, "faults", "", "JSON fault plan to inject (node crashes, link flaps, burst loss)")
	fs.StringVar(&f.report, "report", "", "write the session's observability report as JSON to this path")
	cliflags.Pool(fs, s, true)
	cliflags.Coding(fs, s,
		"coding scheme: rlnc (full recoding), rlnc-e2e (no recoding), rs (source-only Reed-Solomon)",
		"coded packets per generation as a factor of the generation size (0 = rateless)")
	return f
}

func main() {
	f := register(flag.CommandLine)
	cliflags.New("omnc-sim", flag.CommandLine).Main(f.run)
}

func (f *flags) run(ctx context.Context) error {
	spec, err := f.resolve()
	if err != nil {
		return err
	}
	return run(ctx, spec, f.svg, f.faults, f.report)
}

// resolve returns the Spec the parsed command line names, translating what
// the flag surface spells differently: -cbr 0 is a backlogged source (the
// Spec reserves 0 for its default rate and uses negative), -src/-dst -1 are
// nil endpoints, -faults and -report are paths.
func (f *flags) resolve() (jobs.Spec, error) {
	spec := f.spec
	if spec.Trials < 1 {
		return spec, fmt.Errorf("-trials must be at least 1, got %d", spec.Trials)
	}
	if spec.CBRRate == 0 {
		spec.CBRRate = -1
	}
	if f.src >= 0 && f.dst >= 0 {
		spec.Src, spec.Dst = &f.src, &f.dst
	}
	spec.Report = f.report != ""
	if f.faults != "" {
		data, err := os.ReadFile(f.faults)
		if err != nil {
			return spec, err
		}
		if spec.Faults, err = omnc.DecodeFaultPlan(data); err != nil {
			return spec, fmt.Errorf("%s: %w", f.faults, err)
		}
	}
	return spec, nil
}

func run(ctx context.Context, spec jobs.Spec, svgPath, faultsPath, reportPath string) error {
	res, err := jobs.Run(ctx, spec)
	if err != nil {
		return err
	}
	nw, sg := res.Network, res.Subgraph
	src, dst, trials := *res.Src, *res.Dst, len(res.Session)

	fmt.Printf("network: %d nodes, density %.1f, mean link quality %.3f\n",
		nw.Size(), nw.MeanDegree()+1, nw.MeanLinkQuality())
	fmt.Printf("session: %d -> %d (%d selected forwarders, %d links, %.0f candidate paths)\n",
		src, dst, sg.Size(), len(sg.Links), sg.PathCount())
	if svgPath != "" {
		if err := renderSessionSVG(nw, sg, src, dst, svgPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgPath)
	}
	if spec.Faults != nil {
		fmt.Printf("fault plan: %d events from %s\n", len(spec.Faults.Events), faultsPath)
	}
	cfg := spec.Config()
	if cfg.Scheme != omnc.SchemeRLNC || cfg.Redundancy != 0 {
		fmt.Printf("coding scheme: %s, redundancy %s\n", cfg.Scheme, redundancyLabel(cfg.Redundancy))
	}
	if cfg.Coding.Field != omnc.Field8 {
		fmt.Printf("coefficient field: GF(2^%s)\n", spec.Field)
	}

	if trials > 1 {
		return printTrials(res.Session, trials)
	}

	st := res.Session[0]
	fmt.Printf("\nprotocol:            %s\n", st.Policy)
	fmt.Printf("throughput:          %.0f bytes/s\n", st.Throughput)
	fmt.Printf("generations decoded: %d (over %.0f emulated seconds)\n", st.GenerationsDecoded, st.Duration)
	if st.Gamma > 0 {
		fmt.Printf("optimized gamma:     %.0f bytes/s (rate control: %d iterations)\n",
			st.Gamma, st.RateIterations)
	}
	if st.TotalReceived > 0 {
		fmt.Printf("innovative ratio:    %.2f (%d of %d receptions)\n",
			float64(st.InnovativeReceived)/float64(st.TotalReceived),
			st.InnovativeReceived, st.TotalReceived)
	}
	fmt.Printf("mean queue:          %.2f packets\n", st.MeanQueue)
	fmt.Printf("node utility:        %.2f\n", st.NodeUtility)
	fmt.Printf("path utility:        %.2f\n", st.PathUtility)
	if reportPath != "" {
		art := res.Artifact("report.json")
		if art == nil {
			return fmt.Errorf("reporting was requested but the session produced no report")
		}
		if err := os.WriteFile(reportPath, art.Data, 0o644); err != nil {
			return err
		}
		fmt.Printf("report:              %d tx frames, %d rx, %d innovative, %d discarded, %.1f s airtime -> %s\n",
			st.Report.TotalTx(), st.Report.TotalRx(), st.Report.TotalInnovative(),
			st.Report.TotalDiscarded(), st.Report.MAC.AirtimeSeconds, reportPath)
	}
	return nil
}

// printTrials prints the per-trial throughputs plus a summary. Trial i's
// protocol seed is derived from (seed, i) inside internal/jobs, so the
// output is identical for every -workers value.
func printTrials(stats []*omnc.SessionStats, trials int) error {
	fmt.Printf("\nprotocol: %s, %d trials\n", stats[0].Policy, trials)
	fmt.Printf("%-7s %-18s %-12s %s\n", "trial", "throughput (B/s)", "mean queue", "generations")
	tps := make([]float64, trials)
	for i, st := range stats {
		tps[i] = st.Throughput
		fmt.Printf("%-7d %-18.0f %-12.2f %d\n", i, st.Throughput, st.MeanQueue, st.GenerationsDecoded)
	}
	fmt.Printf("\nthroughput summary:  %s\n", metrics.Summarize(tps))
	return nil
}

// redundancyLabel prints a redundancy factor, spelling out the rateless
// default.
func redundancyLabel(r float64) string {
	if r <= 0 {
		return "rateless"
	}
	return fmt.Sprintf("%.2fx", r)
}

// renderSessionSVG draws the deployment with the selected forwarders
// highlighted.
func renderSessionSVG(nw *omnc.Network, sg *omnc.Subgraph, src, dst int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nw.RenderSVG(f, topology.SVGOptions{
		ShowLinks: true,
		Highlight: sg.Nodes,
		Src:       src,
		Dst:       dst,
	})
}
