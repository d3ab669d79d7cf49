package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"omnc"
	"omnc/internal/experiments"
	"omnc/internal/metrics"
)

// Artifact is one landed file of a run: CSV series, a JSON report, a trace.
// The bytes are exactly what the equivalent CLI invocation writes — the
// golden-figure tests pin this — so a job submitted over HTTP and a figure
// regenerated in a shell are interchangeable evidence.
type Artifact struct {
	Name   string `json:"name"`
	Size   int    `json:"size"`
	SHA256 string `json:"sha256"`
	// Data is the artifact's content; process-local (the store writes it to
	// the run directory, the index serializes only the head above).
	Data []byte `json:"-"`
}

func newArtifact(name string, data []byte) Artifact {
	sum := sha256.Sum256(data)
	return Artifact{Name: name, Size: len(data), SHA256: hex.EncodeToString(sum[:]), Data: data}
}

// csvBytes renders rows exactly like the CLIs' writeCSV: encoding/csv
// defaults, "\n" record terminators.
func csvBytes(rows [][]string) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// curvesArtifact renders a per-protocol CDF family the way omnc-fig's
// writeCurves always has: protocols in sorted order (byte-stable for a fixed
// seed), 200 interpolation points, five decimals.
func curvesArtifact(name, xName string, curves map[string]*metrics.CDF) (Artifact, error) {
	protos := make([]string, 0, len(curves))
	for proto := range curves {
		protos = append(protos, proto)
	}
	sort.Strings(protos)
	rows := [][]string{{"protocol", xName, "cdf"}}
	for _, proto := range protos {
		for _, pt := range curves[proto].Points(200) {
			rows = append(rows, []string{proto, fmt.Sprintf("%.5f", pt.X), fmt.Sprintf("%.5f", pt.F)})
		}
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact(name, data), nil
}

// fig1Artifact renders the convergence trace as fig1_convergence.csv.
func fig1Artifact(r *experiments.Fig1Result) (Artifact, error) {
	header := []string{"iteration"}
	for _, id := range r.Nodes {
		header = append(header, fmt.Sprintf("node%d_bytes_per_sec", id))
	}
	rows := [][]string{header}
	for t := 0; t < r.Iterations; t++ {
		row := []string{strconv.Itoa(t + 1)}
		for i := range r.Nodes {
			row = append(row, fmt.Sprintf("%.2f", r.Series[i][t]))
		}
		rows = append(rows, row)
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("fig1_convergence.csv", data), nil
}

// multiArtifact renders the scaling sweep as fig_multi.csv.
func multiArtifact(r *experiments.MultiScaling) (Artifact, error) {
	protos := append([]string(nil), r.Config.Base.Protocols...)
	sort.Strings(protos)
	rows := [][]string{{"protocol", "sessions", "aggregate_bytes_per_sec", "jain_fairness"}}
	for _, p := range protos {
		for _, pt := range r.Points {
			rows = append(rows, []string{
				p,
				strconv.Itoa(pt.Sessions),
				fmt.Sprintf("%.5f", pt.AggregateThroughput[p]),
				fmt.Sprintf("%.5f", pt.JainFairness[p]),
			})
		}
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("fig_multi.csv", data), nil
}

// faultsArtifact renders the churn sweep as fig_faults.csv.
func faultsArtifact(r *experiments.FaultChurn) (Artifact, error) {
	protos := append([]string(nil), r.Config.Base.Protocols...)
	sort.Strings(protos)
	rows := [][]string{{"protocol", "churn_per_100s", "throughput_bytes_per_sec", "mean_recovery_s"}}
	for _, p := range protos {
		for _, pt := range r.Points {
			rows = append(rows, []string{
				p,
				fmt.Sprintf("%.5f", pt.Churn),
				fmt.Sprintf("%.5f", pt.Throughput[p]),
				fmt.Sprintf("%.5f", pt.Recovery[p]),
			})
		}
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("fig_faults.csv", data), nil
}

// schemesArtifact renders the coding-scheme sweep as fig_schemes.csv.
func schemesArtifact(r *experiments.SchemesResult) (Artifact, error) {
	rows := [][]string{{"scheme", "redundancy", "hops", "throughput_bytes_per_sec", "generations_decoded"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Scheme.String(),
			fmt.Sprintf("%.2f", p.Redundancy),
			strconv.Itoa(p.Hops),
			fmt.Sprintf("%.5f", p.Throughput),
			fmt.Sprintf("%.5f", p.GenerationsDecoded),
		})
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("fig_schemes.csv", data), nil
}

// driftArtifact renders the drift sweep as fig_drift.csv. The drift figure
// never had a CSV form in the CLI (it printed summaries only), so this
// column set is the artifact's native definition: one row per jitter level,
// the full throughput summary spelled out.
func driftArtifact(r *experiments.DriftSweepResult) (Artifact, error) {
	rows := [][]string{{"jitter", "n", "mean_bytes_per_sec", "median_bytes_per_sec",
		"p10_bytes_per_sec", "p90_bytes_per_sec", "min_bytes_per_sec", "max_bytes_per_sec"}}
	for i, j := range r.Jitters {
		s := r.Throughput[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.5f", j),
			strconv.Itoa(s.N),
			fmt.Sprintf("%.5f", s.Mean),
			fmt.Sprintf("%.5f", s.Median),
			fmt.Sprintf("%.5f", s.P10),
			fmt.Sprintf("%.5f", s.P90),
			fmt.Sprintf("%.5f", s.Min),
			fmt.Sprintf("%.5f", s.Max),
		})
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("fig_drift.csv", data), nil
}

// linksArtifact renders the deployment's directed link set as links.csv —
// byte-identical to omnc-topo's -links output.
func linksArtifact(nw *omnc.Network) (Artifact, error) {
	rows := [][]string{{"from", "to", "probability", "distance_m"}}
	for i := 0; i < nw.Size(); i++ {
		for _, j := range nw.Neighbors(i) {
			d := nw.Position(i).Distance(nw.Position(j))
			rows = append(rows, []string{
				strconv.Itoa(i), strconv.Itoa(j),
				fmt.Sprintf("%.4f", nw.Prob(i, j)),
				fmt.Sprintf("%.1f", d),
			})
		}
	}
	data, err := csvBytes(rows)
	if err != nil {
		return Artifact{}, err
	}
	return newArtifact("links.csv", data), nil
}
