// Command omnc-fig regenerates the tables and figures of the paper's
// evaluation (Sec. 5). Each figure prints its series as an ASCII CDF plot
// plus the summary statistics the paper quotes, and can optionally be
// written as CSV for external plotting.
//
// Usage:
//
//	omnc-fig -fig 1        # convergence of the distributed rate control
//	omnc-fig -fig 2l       # CDF of throughput gains, lossy network
//	omnc-fig -fig 2r       # CDF of throughput gains, high link quality
//	omnc-fig -fig 3        # CDF of time-averaged queue sizes
//	omnc-fig -fig 4        # CDFs of node and path utility ratios
//	omnc-fig -fig lpgap    # emulated vs optimized throughput (Sec. 5)
//	omnc-fig -fig drift    # extension: throughput under link-quality drift
//	omnc-fig -fig multi    # extension: multi-unicast scaling (aggregate + fairness)
//	omnc-fig -fig faults   # extension: throughput and recovery time under churn
//	omnc-fig -fig schemes  # extension: coding schemes x redundancy on a lossy chain
//	omnc-fig -fig all      # everything (except drift, multi, faults and schemes)
//
// The default scale is laptop-sized (30 sessions, 200 emulated seconds,
// payload-rank fidelity); -full selects the paper's full scale (300
// sessions of 800 s with 1 KB blocks — hours of CPU time).
//
// Every figure runs through internal/jobs, the dispatcher behind
// omnc-serve: the CSVs written here are the byte-identical artifacts a
// daemon job for the same Spec lands in its run directory (the golden-file
// tests pin this). This command owns only the terminal rendering.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"omnc/internal/cliflags"
	"omnc/internal/experiments"
	"omnc/internal/jobs"
	"omnc/internal/metrics"
	"omnc/internal/sim"
)

// flags is omnc-fig's command line: the Spec fields every figure shares,
// bound to one base Spec, plus the figure selector and the CSV directory.
type flags struct {
	base     jobs.Spec
	fig, csv string
}

// register binds omnc-fig's flags to the base Spec. -sessions and -duration
// stay 0 ("the scale's default") because -full moves what they default to.
func register(fs *flag.FlagSet) *flags {
	d := jobs.Defaults(jobs.KindComparison, false)
	f := &flags{base: jobs.Spec{Version: d.Version, MAC: d.MAC, Scheme: d.Scheme, Field: d.Field}}
	s := &f.base
	fs.StringVar(&f.fig, "fig", "all", "figure to regenerate: 1, 2l, 2r, 3, 4, lpgap, drift, multi, faults, schemes, all")
	fs.BoolVar(&s.Full, "full", false, "paper scale (300 sessions x 800 s, 1 KB blocks)")
	fs.IntVar(&s.Sessions, "sessions", 0, "override session count")
	fs.Float64Var(&s.Duration, "duration", 0, "override emulated seconds per session")
	fs.Int64Var(&s.Seed, "seed", 1, "experiment seed")
	fs.StringVar(&s.MAC, "mac", s.MAC, "channel model: oracle or csma")
	fs.StringVar(&f.csv, "csv", "", "directory to write CSV series into")
	fs.BoolVar(&s.Report, "report", false, "collect per-session observability reports and print per-figure totals")
	cliflags.Pool(fs, s, true)
	cliflags.Coding(fs, s,
		"coding scheme: rlnc, rlnc-e2e or rs, for every figure but -fig schemes (which sweeps all three and rejects the flag)",
		"source emission cap as a factor of the generation size (0 = rateless)")
	return f
}

func main() {
	f := register(flag.CommandLine)
	cliflags.New("omnc-fig", flag.CommandLine).Main(f.run)
}

// run translates -fig into the Specs it names — one per figure, three for
// "all" — and renders each.
func (f *flags) run(ctx context.Context) error {
	switch f.fig {
	case "1":
		return fig1(ctx, f.spec(jobs.KindFig1), f.csv)
	case "2l", "2r", "3", "4", "lpgap":
		return comparisonFigs(ctx, f.spec(jobs.KindComparison, f.fig), f.csv)
	case "drift":
		return driftFig(ctx, f.spec(jobs.KindDrift), f.csv)
	case "multi":
		return multiFig(ctx, f.spec(jobs.KindMulti), f.csv)
	case "faults":
		return faultsFig(ctx, f.spec(jobs.KindFaults), f.csv)
	case "schemes":
		return schemesFig(ctx, f.spec(jobs.KindSchemes), f.csv)
	case "all":
		if err := fig1(ctx, f.spec(jobs.KindFig1), f.csv); err != nil {
			return err
		}
		if err := comparisonFigs(ctx, f.spec(jobs.KindComparison, "2l", "3", "4", "lpgap"), f.csv); err != nil {
			return err
		}
		return comparisonFigs(ctx, f.spec(jobs.KindComparison, "2r"), f.csv)
	default:
		return fmt.Errorf("unknown -fig %q", f.fig)
	}
}

// spec narrows the base Spec to one kind. -report asks for the comparison
// figures' per-session reports; the other kinds keep none and their Specs
// reject the field, so it is not passed on to them.
func (f *flags) spec(kind string, figures ...string) jobs.Spec {
	s := f.base
	s.Kind, s.Figures = kind, figures
	s.Report = s.Report && kind == jobs.KindComparison
	return s
}

func fig1(ctx context.Context, spec jobs.Spec, csvDir string) error {
	r, err := jobs.Run(ctx, spec)
	if err != nil {
		return err
	}
	res := r.Fig1
	fmt.Printf("Figure 1: convergence of the distributed rate-control algorithm\n")
	fmt.Printf("(capacity 1e5 B/s; converged=%v after %d iterations; gamma=%.0f B/s)\n\n",
		res.Converged, res.Iterations, res.Gamma)
	// Print the trace as a table every few iterations.
	fmt.Printf("%-6s", "iter")
	for _, id := range res.Nodes {
		fmt.Printf("  node%-3d", id)
	}
	fmt.Println()
	step := res.Iterations / 12
	if step < 1 {
		step = 1
	}
	for t := 0; t < res.Iterations; t += step {
		fmt.Printf("%-6d", t+1)
		for i := range res.Nodes {
			fmt.Printf("  %-7.0f", res.Series[i][t])
		}
		fmt.Println()
	}
	fmt.Println()
	return writeArtifact(csvDir, r, "fig1_convergence.csv")
}

// runTicking runs a sweep Spec while reporting its progress to stderr.
func runTicking(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
	progress := metrics.NewProgress(spec.Units())
	stopTicker := cliflags.StartProgressTicker("omnc-fig", progress)
	defer stopTicker()
	return jobs.RunWithProgress(ctx, spec, progress)
}

func comparisonFigs(ctx context.Context, spec jobs.Spec, csvDir string) error {
	// The preamble derives from the mapped config, so vet the Spec before
	// using it (jobs.Run would only catch it after the banner printed).
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg := spec.Config()
	fmt.Printf("Running %d sessions on %d nodes (density %.0f, mean quality target %s, MAC %s)...\n",
		cfg.Sessions, cfg.Nodes, cfg.Density, qualityLabel(cfg.MeanQuality), macLabel(cfg.MAC))
	r, err := runTicking(ctx, spec)
	if err != nil {
		return err
	}
	c := r.Comparison
	fmt.Printf("network mean link quality: %.3f\n", c.Network.MeanLinkQuality())
	if it := c.RateIterationsSummary(); it.N > 0 {
		fmt.Printf("rate-control iterations (paper mean: 91): %s\n", it)
	}
	fmt.Println()
	for _, f := range spec.Figures {
		switch f {
		case "2l", "2r":
			label := "lossy network"
			if f == "2r" {
				label = "high link quality"
			}
			fmt.Println(metrics.ASCIIPlot(
				fmt.Sprintf("Figure 2 (%s): CDF of throughput gain over ETX routing", label),
				"throughput gain", 4, c.GainCDFs()))
			if err := writeArtifact(csvDir, r, "fig"+f+"_gains.csv"); err != nil {
				return err
			}
		case "3":
			curves := c.QueueCDFs()
			xMax := 1.0
			for _, cdf := range curves {
				if cdf.Max() > xMax {
					xMax = cdf.Max()
				}
			}
			fmt.Println(metrics.ASCIIPlot(
				"Figure 3: CDF of time-averaged queue size", "queue size (packets)", xMax, curves))
			if err := writeArtifact(csvDir, r, "fig3_queues.csv"); err != nil {
				return err
			}
		case "4":
			fmt.Println(metrics.ASCIIPlot(
				"Figure 4 (left): CDF of node utility ratio", "node utility ratio", 1, c.NodeUtilityCDFs()))
			fmt.Println(metrics.ASCIIPlot(
				"Figure 4 (right): CDF of path utility ratio", "path utility ratio", 1, c.PathUtilityCDFs()))
			if err := writeArtifact(csvDir, r, "fig4_node_utility.csv"); err != nil {
				return err
			}
			if err := writeArtifact(csvDir, r, "fig4_path_utility.csv"); err != nil {
				return err
			}
		case "lpgap":
			fmt.Printf("Emulated OMNC / optimized sUnicast throughput: %s\n\n", c.LPGapSummary())
		}
	}
	printReportTotals(c)
	return nil
}

// printReportTotals summarizes the per-session observability reports per
// protocol; it prints nothing when the comparison ran without reports.
func printReportTotals(c *experiments.Comparison) {
	totals := c.ReportTotals()
	if len(totals) == 0 {
		return
	}
	protos := make([]string, 0, len(totals))
	for p := range totals {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	fmt.Println("Report totals (summed over sessions):")
	fmt.Printf("%-10s %-10s %-12s %-12s %-12s %-12s %-12s %s\n",
		"protocol", "sessions", "tx frames", "rx packets", "innovative", "discarded", "airtime (s)", "replans")
	for _, p := range protos {
		t := totals[p]
		fmt.Printf("%-10s %-10d %-12d %-12d %-12d %-12d %-12.1f %d\n",
			p, t.Sessions, t.TxFrames, t.RxPackets, t.Innovative, t.Discarded, t.AirtimeSeconds, t.Replans)
	}
	fmt.Println()
}

// driftFig prints the link-dynamics extension: OMNC throughput as link
// drift intensifies, each session re-solving its rates mid-run after every
// drift's dead time.
func driftFig(ctx context.Context, spec jobs.Spec, csvDir string) error {
	r, err := runTicking(ctx, spec)
	if err != nil {
		return err
	}
	res := r.Drift
	fmt.Println("Extension: OMNC throughput under link-quality drift")
	fmt.Println("(3 epochs per session; at each boundary the qualities drift, the session pays 5 s of dead time, then re-solves its rates)")
	fmt.Printf("\n%-10s %s\n", "jitter", "throughput (bytes/s)")
	for i, j := range res.Jitters {
		fmt.Printf("%-10.2f %s\n", j, res.Throughput[i])
	}
	fmt.Println()
	return writeArtifact(csvDir, r, "fig_drift.csv")
}

// multiFig prints the multi-unicast scaling extension: several unicast
// sessions of one protocol contend on one shared engine, and the series
// report aggregate throughput and Jain's fairness index versus the session
// count. OMNC allocates rates jointly; the baselines contend uncoordinated.
// -sessions caps the largest session count.
func multiFig(ctx context.Context, spec jobs.Spec, csvDir string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	mc := spec.MultiConfig()
	fmt.Printf("Running multi-unicast scaling on %d nodes (counts %v, %d trials each, MAC %s)...\n",
		mc.Base.Nodes, mc.SessionCounts, mc.Trials, macLabel(mc.Base.MAC))
	r, err := runTicking(ctx, spec)
	if err != nil {
		return err
	}
	sc := r.Multi

	protos := append([]string(nil), sc.Config.Base.Protocols...)
	sort.Strings(protos)
	fmt.Println("\nExtension: aggregate throughput and Jain fairness vs concurrent sessions")
	fmt.Printf("%-10s", "sessions")
	for _, p := range protos {
		fmt.Printf("  %-22s", p+" (B/s, Jain)")
	}
	fmt.Println()
	for _, pt := range sc.Points {
		fmt.Printf("%-10d", pt.Sessions)
		for _, p := range protos {
			fmt.Printf("  %-22s", fmt.Sprintf("%.0f  %.3f",
				pt.AggregateThroughput[p], pt.JainFairness[p]))
		}
		fmt.Println()
	}
	fmt.Println()
	return writeArtifact(csvDir, r, "fig_multi.csv")
}

// faultsFig prints the fault-injection extension: every protocol's
// throughput and mean time-to-recover as node churn and link instability
// rise. Each (session, churn rate) cell draws a randomized fault plan with
// the session's endpoints protected; churn 0 is the exact fault-free path.
func faultsFig(ctx context.Context, spec jobs.Spec, csvDir string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	fc := spec.FaultsConfig()
	fmt.Printf("Running fault churn on %d nodes (%d sessions x churn %v per 100 s, MAC %s)...\n",
		fc.Base.Nodes, fc.Base.Sessions, fc.ChurnRates, macLabel(fc.Base.MAC))
	r, err := runTicking(ctx, spec)
	if err != nil {
		return err
	}
	res := r.Faults

	protos := append([]string(nil), res.Config.Base.Protocols...)
	sort.Strings(protos)
	fmt.Println("\nExtension: throughput and time-to-recover vs fault churn")
	fmt.Printf("%-12s", "churn/100s")
	for _, p := range protos {
		fmt.Printf("  %-24s", p+" (B/s, recover s)")
	}
	fmt.Println()
	for _, pt := range res.Points {
		fmt.Printf("%-12.0f", pt.Churn)
		for _, p := range protos {
			fmt.Printf("  %-24s", fmt.Sprintf("%.0f  %.2f", pt.Throughput[p], pt.Recovery[p]))
		}
		fmt.Println()
	}
	fmt.Println()
	return writeArtifact(csvDir, r, "fig_faults.csv")
}

// schemesFig prints the coding-scheme extension: OMNC throughput on an
// explicit lossy relay chain as the coding scheme (full-recoding RLNC,
// end-to-end RLNC, source-only Reed-Solomon), the source redundancy factor,
// and the chain length vary. The chain makes the strategy difference
// visible: every delivered byte crossed every hop, so relays that can only
// repeat stored packets fall behind in-network recoding as hops accumulate.
func schemesFig(ctx context.Context, spec jobs.Spec, csvDir string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	fmt.Printf("Running coding schemes on lossy chains (%d cells, MAC %s)...\n",
		spec.Units(), macLabel(spec.Config().MAC))
	r, err := runTicking(ctx, spec)
	if err != nil {
		return err
	}
	res := r.Schemes

	schemes := res.Config.Schemes
	fmt.Println("\nExtension: OMNC throughput by coding scheme, redundancy and chain length")
	fmt.Printf("(per-hop delivery %.2f; redundancy 0 = rateless source)\n", res.Config.PerHopQuality)
	for _, red := range res.Config.Redundancies {
		fmt.Printf("\nredundancy %s\n", redundancyLabel(red))
		fmt.Printf("%-8s", "hops")
		for _, s := range schemes {
			fmt.Printf("  %-14s", s.String()+" (B/s)")
		}
		fmt.Println()
		for _, hops := range res.Config.Hops {
			fmt.Printf("%-8d", hops)
			for _, s := range schemes {
				pt := res.Point(s, red, hops)
				fmt.Printf("  %-14.0f", pt.Throughput)
			}
			fmt.Println()
		}
	}
	fmt.Println()
	return writeArtifact(csvDir, r, "fig_schemes.csv")
}

// redundancyLabel formats a source emission cap for humans.
func redundancyLabel(r float64) string {
	if r == 0 {
		return "rateless"
	}
	return fmt.Sprintf("%.2fx", r)
}

func qualityLabel(q float64) string {
	if q <= 0 {
		return "default ~0.58"
	}
	return fmt.Sprintf("%.2f", q)
}

func macLabel(m sim.Mode) string {
	if m == sim.ModeCSMA {
		return "csma"
	}
	return "oracle"
}

// writeArtifact copies one of the run's landed artifacts into the CSV
// directory — the same bytes an omnc-serve job for this Spec stores.
func writeArtifact(dir string, r *jobs.Result, name string) error {
	if dir == "" {
		return nil
	}
	art := r.Artifact(name)
	if art == nil {
		return fmt.Errorf("run produced no %s artifact", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, art.Data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
