// Command benchmark is the repo's one benchmark: six named workloads that
// push packets, solves and jobs through gf256 -> coding -> sim -> protocol
// -> experiments -> jobs -> serve, five end-to-end metrics defined on every
// workload, and a per-layer ledger taken by a second, traced pass. Every
// later performance claim in this repo names a metric and a workload from
// it. See README.md in this directory for the glossary.
//
//	go run ./benchmark -workload all -seed 1 -out DIR    every workload, untraced then traced
//	go run ./benchmark -workload plan -trace=false       one workload, end-to-end metrics only
//	go run ./benchmark -smoke                            every workload at a tenth of its size
//	go run ./benchmark -compare A B                      verdicts between two result sets
//
// The driver's form runs one workload and one pass in this process and ends
// its standard output with one JSON object:
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds  = flag.Int("seconds", runSeconds, "sizes the run: operation counts are per-workload rates times this")
		trace    = flag.String("trace", "", "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); empty: both")
		out      = flag.String("out", "", "directory for result files and span traces (default: "+buildDir+"/out in the checkout)")
		runs     = flag.Int("runs", 1, "untraced runs per workload when both passes are requested; run r uses seed+r")
		smoke    = flag.Bool("smoke", false, "every workload at about a tenth of its operation count, all checks on")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
		glossary = flag.Bool("glossary", false, "print the README's metric tables as the metric tables define them")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := func() error {
		switch {
		case *manifest:
			return printManifest()
		case *glossary:
			printGlossary()
			return nil
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("usage: -compare A B (two result directories or results.json files)")
			}
			return compareSets(flag.Arg(0), flag.Arg(1))
		}
		if *smoke {
			*seconds = 1
		}
		if *seconds < 1 {
			return fmt.Errorf("-seconds %d: must be at least 1", *seconds)
		}
		var pass []bool // traced?
		switch strings.ToLower(*trace) {
		case "":
			pass = []bool{false, true}
		case "0", "false":
			pass = []bool{false}
		case "1", "true":
			pass = []bool{true}
		default:
			return fmt.Errorf("-trace %q: want 0 or 1", *trace)
		}
		if *out == "" {
			scratch, err := scratchDir()
			if err != nil {
				return err
			}
			*out = filepath.Join(scratch, "out")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		names := []string{*workload}
		if *workload == "all" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		for _, n := range names {
			if findWorkload(n) == nil {
				return fmt.Errorf("unknown workload %q; have %s and all", n, strings.Join(workloadNames(), ", "))
			}
		}
		if *smoke {
			return runSmoke(ctx, names, pass, *seed, *out)
		}
		if len(names) == 1 && len(pass) == 1 && *runs == 1 {
			return runOne(ctx, runConfig{workload: findWorkload(names[0]), seed: *seed, seconds: *seconds, traced: pass[0], outDir: *out})
		}
		return runAll(ctx, names, pass, *seed, *seconds, *runs, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runOne measures one workload in this process and ends standard output
// with the driver's JSON object.
func runOne(ctx context.Context, rc runConfig) error {
	res, err := runWorkload(ctx, rc)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := writeJSON(resultPath(rc.outDir, res), res); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func resultPath(dir string, r *result) string {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.%s.json", r.Workload, r.Seed, pass))
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric of one run by name with its unit, plus
// what makes the numbers interpretable: counts, sample sizes, bases, the
// load shape and the digests.
func printResult(w *os.File, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass) seed %d, sized for %d s\n", r.Workload, pass, r.Seed, r.Seconds)
	fmt.Fprintf(w, "   why: %s\n", r.Why)
	fmt.Fprintf(w, "   load: %s\n", r.LoadShape)
	m := r.Machine
	fmt.Fprintf(w, "   machine: nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n", m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.Commit)
	fmt.Fprintf(w, "   operations: %d attempted, %d failed, correct=%v; window %.3f s; %d latency samples",
		r.Attempted, r.Failed, r.Correct, r.WindowSeconds, r.Samples)
	if r.TailName != "" {
		fmt.Fprintf(w, "; %s %.3f ms", r.TailName, r.TailMs)
	}
	fmt.Fprintln(w)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstFailure)
	}
	if r.BuildSeconds > 0 {
		fmt.Fprintf(w, "   build_s: %.2f (go build ./cmd/omnc-serve, outside every metric)\n", r.BuildSeconds)
	}
	if r.SkippedByCap > 0 {
		fmt.Fprintf(w, "   placements skipped by the %d-link cap: %d\n", planLinkCap, r.SkippedByCap)
	}
	if r.ScreenedOut > 0 {
		fmt.Fprintf(w, "   placements screened out (the program's own answer failed the output check): %d\n", r.ScreenedOut)
	}
	if r.Noisy {
		fmt.Fprintln(w, "   NOISY: host calibration drifted outside 0.9-1.1 during this run")
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "   %-34s %14.6g %-6s", d.name, v.Value, v.Unit)
		if base := r.Bases[d.name]; base != "" {
			fmt.Fprintf(w, "  (%s)", base)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   input_hash    %s\n   result_digest %s\n", r.InputHash, r.ResultDigest)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.TraceFile)
	}
}

// resultSet is what -out holds after a multi-run invocation and what
// -compare reads.
type resultSet struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// runAll measures each workload in a child process of its own — peak RSS is
// a per-process number — untraced `runs` times (run r at seed+r), then once
// traced, and writes the set to <out>/results.json.
func runAll(ctx context.Context, names []string, passes []bool, seed int64, seconds, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Seed: seed, Seconds: seconds, Machine: thisMachine()}
	for _, name := range names {
		for _, traced := range passes {
			n := runs
			if traced {
				n = 1
			}
			for r := 0; r < n; r++ {
				flagTrace := "0"
				if traced {
					flagTrace = "1"
				}
				s := seed + int64(r)
				cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(s),
					"-seconds", fmt.Sprint(seconds), "-trace", flagTrace, "-out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (traced=%v, seed %d): %w", name, traced, s, err)
				}
				res := &result{Workload: name, Seed: s, Traced: traced}
				buf, err := os.ReadFile(resultPath(out, res))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(buf, res); err != nil {
					return err
				}
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), set); err != nil {
		return err
	}
	return printSummary(set, out)
}

// runSmoke is the quick self-check a CI job can run: every workload at the
// size of one second, both passes, all output checks on. Everything runs in
// this one process, each workload is set up once and the layer probes run
// once, so set-up, memory and probe numbers are not the ones to quote; a
// failed operation fails the smoke.
func runSmoke(ctx context.Context, names []string, passes []bool, seed int64, out string) error {
	set := &resultSet{Seed: seed, Seconds: 1, Machine: thisMachine()}
	for _, name := range names {
		for _, traced := range passes {
			res, err := runWorkload(ctx, runConfig{workload: findWorkload(name), seed: seed, seconds: 1, traced: traced, outDir: out, setups: 1})
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, res.FirstFailure)
			}
			if traced && probeMemo == nil {
				probeMemo = make(map[string]float64)
				for _, d := range perLayer {
					probeMemo[d.name] = res.Metrics[d.name].Value
				}
			}
			set.Runs = append(set.Runs, res)
		}
	}
	return printSummary(set, out)
}

// printSummary ends a multi-run invocation: one line per workload and
// end-to-end metric (medians and quartile spreads over the untraced runs),
// then the summary JSON, which also lands in <out>/summary.json — the form
// BASELINE.json records.
func printSummary(set *resultSet, out string) error {
	type row struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Runs      int                `json:"runs"`
		Seeds     []int64            `json:"seeds"`
		Medians   map[string]float64 `json:"medians"`
		Spreads   map[string]float64 `json:"spreads"`
		// PerLayer is the traced run's ledger (the first one, if several).
		PerLayer map[string]float64 `json:"per_layer,omitempty"`
	}
	summary := map[string]*row{}
	fmt.Println("== summary (medians over the untraced runs)")
	for _, name := range workloadNames() {
		values := map[string][]float64{}
		r := &row{Medians: map[string]float64{}, Spreads: map[string]float64{}}
		for _, res := range set.Runs {
			if res.Workload != name {
				continue
			}
			if res.Traced {
				if r.PerLayer == nil {
					r.PerLayer = map[string]float64{}
					for k, v := range res.Metrics {
						r.PerLayer[k] = v.Value
					}
				}
				continue
			}
			r.Runs++
			r.Attempted += res.Attempted
			r.Failed += res.Failed
			r.Seeds = append(r.Seeds, res.Seed)
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		if r.Runs == 0 {
			continue
		}
		summary[name] = r
		fmt.Printf("   %-16s %d runs, %d operations attempted, %d failed\n", name, r.Runs, r.Attempted, r.Failed)
		for _, d := range endToEnd {
			r.Medians[d.name] = median(values[d.name])
			r.Spreads[d.name] = quartileSpread(values[d.name])
			fmt.Printf("      %-14s %14.6g %-4s spread %.3f (bound %.2f)\n", d.name, r.Medians[d.name], d.unit, r.Spreads[d.name], d.bound)
		}
	}
	doc := struct {
		Machine   machine         `json:"machine"`
		Seconds   int             `json:"seconds"`
		Workloads map[string]*row `json:"workloads"`
		Claim     *string         `json:"claim"`
	}{set.Machine, set.Seconds, summary, nil}
	if err := writeJSON(filepath.Join(out, "summary.json"), doc); err != nil {
		return err
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", buf)
	return nil
}

// commitID is the VCS revision the binary was built from, when the
// toolchain stamped one, else what git reports for the checkout.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if root, err := moduleRoot(); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// manifestDoc is BENCHMARK.json.
type manifestDoc struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestNamed  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifestDoc {
	doc := manifestDoc{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, manifestNamed{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return doc
}

func printManifest() error {
	buf, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", buf)
	return err
}

// printGlossary prints the metric tables in the README's markdown form.
func printGlossary() {
	fmt.Println("| name | unit | better | bound | meaning |\n|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Printf("| `%s` | %s | %s | %.2f | %s |\n", d.name, d.unit, d.better, d.bound, d.about)
	}
	fmt.Println("\n| name | unit | better | what it measures → what it should move |\n|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Printf("| `%s` | %s | %s | %s |\n", d.name, d.unit, d.better, d.about)
	}
}
