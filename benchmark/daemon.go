package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"omnc/internal/jobs"
)

// The daemon workload drives a real omnc-serve child over loopback HTTP.
// The load is a closed loop: each client goroutine owns one keep-alive
// connection and sends its next Spec only after the previous job's artifact
// has been fetched and verified.

const (
	buildDir     = ".bench_build" // inside the checkout; ignored by git
	fig1Artifact = "fig1_convergence.csv"
	opTimeout    = 30 * time.Second
)

// daemonClients is the load shape: min(nproc, 2) clients against a daemon
// started with the same number of workers, so the generator never runs more
// goroutines or connections than the machine has processors.
func daemonClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// moduleRoot finds the checkout: the nearest ancestor of the working
// directory whose go.mod declares module omnc.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		buf, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(buf)), "module omnc") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module omnc above the working directory; run from the checkout")
		}
		dir = parent
	}
}

// scratchDir returns (and creates) the benchmark's build-and-temp directory
// inside the checkout.
func scratchDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, buildDir)
	return dir, os.MkdirAll(dir, 0o755)
}

// serveBuild caches the compiled daemon and what a correct fig1 artifact
// hashes to; both are prepared once per process, outside every metric.
var serveBuild struct {
	once    sync.Once
	bin     string
	seconds float64
	want    [sha256.Size]byte
	err     error
}

// prepareDaemon compiles cmd/omnc-serve from the checkout's source (reported
// as build_s) and runs the fig1 Spec in-process for the reference artifact.
// The fig1 experiment ignores its seed — the Spec contributes nothing but
// the kind and a content address — so one reference serves every operation.
func prepareDaemon(ctx context.Context, res *result) error {
	b := &serveBuild
	b.once.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			b.err = err
			return
		}
		dir, err := scratchDir()
		if err != nil {
			b.err = err
			return
		}
		b.bin = filepath.Join(dir, "omnc-serve")
		start := time.Now()
		cmd := exec.CommandContext(ctx, "go", "build", "-o", b.bin, "./cmd/omnc-serve")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build ./cmd/omnc-serve: %w\n%s", err, out)
			return
		}
		b.seconds = time.Since(start).Seconds()
		spec, err := jobs.Decode([]byte(fig1Spec(1)))
		if err != nil {
			b.err = err
			return
		}
		res, err := jobs.Run(ctx, spec)
		if err != nil {
			b.err = err
			return
		}
		a := res.Artifact(fig1Artifact)
		if a == nil {
			b.err = fmt.Errorf("in-process fig1 run produced no %s", fig1Artifact)
			return
		}
		b.want = sha256.Sum256(a.Data)
	})
	n := daemonClients()
	res.BuildSeconds = b.seconds
	res.LoadShape = fmt.Sprintf("closed loop, %d client goroutine(s) with one keep-alive connection each over loopback HTTP (127.0.0.1) to an omnc-serve child started with -jobs %d, %d operations",
		n, n, res.Attempted)
	return b.err
}

// checkArtifact is the daemon output check: the fetched bytes hash to the
// in-process result.
func checkArtifact(got []byte, want [sha256.Size]byte) error {
	if sum := sha256.Sum256(got); sum != want {
		return fmt.Errorf("artifact sha256 %x differs from the in-process result %x", sum[:6], want[:6])
	}
	return nil
}

// serveChild is one running omnc-serve process.
type serveChild struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}
}

// startServe launches the daemon on an ephemeral loopback port over dataDir
// and returns once it has announced its address.
func startServe(ctx context.Context, dataDir string, workers int) (*serveChild, error) {
	cmd := exec.CommandContext(ctx, serveBuild.bin,
		"-addr", "127.0.0.1:0", "-data", dataDir, "-jobs", fmt.Sprint(workers), "-drain", "5s")
	killWithParent(cmd)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &serveChild{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case c.base = <-addr:
		return c, nil
	case <-c.done:
		_ = cmd.Wait()
		return nil, errors.New("omnc-serve exited before announcing its address")
	case <-time.After(opTimeout):
		c.stop()
		return nil, errors.New("omnc-serve did not announce its address")
	}
}

// stop shuts the daemon down gracefully (SIGTERM, the drain path) and waits
// for it; a child that ignores the signal is killed.
func (c *serveChild) stop() {
	if c.cmd.ProcessState != nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { _ = c.cmd.Process.Kill() })
	<-c.done
	_ = c.cmd.Wait()
	timer.Stop()
}

// serveTimings are the per-operation intervals a traced pass collects, in
// milliseconds; the daemon's own timestamps give the server-side ones.
type serveTimings struct {
	submit, claimWait, runLand, notify, artifact []float64
}

type daemonWorkload struct {
	in      *inputs
	hash    string
	dataDir string
	child   *serveChild
	clients []*http.Client

	mu           sync.Mutex
	timings      serveTimings
	kept         atomic.Bool // a window ran on the data directory: leave it in place
	healthzEmpty float64
}

// jobDoc is what the daemon reports about a job (POST reply and SSE events).
type jobDoc struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Run         string     `json:"run"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

func setupDaemon(ctx context.Context, seed int64, ops int, tr *tracer) (inst instance, err error) {
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	if err := pruneStores(scratch); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	w := &daemonWorkload{in: newInputs(seed, ops), dataDir: dataDir}
	defer func() {
		if err != nil {
			_ = w.close()
		}
	}()
	n := daemonClients()
	w.in.specStream(n)
	w.hash = w.in.hash(nil)
	for i := 0; i < n; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	sp := tr.begin("serve.start", -1, -1)
	err = w.start(ctx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		w.healthzEmpty, err = w.healthzMs(ctx, 20)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// maxKeptStores bounds the daemon stores left in the build directory, about
// 95 MB each at the default size. It is generous on purpose: pruning is a
// deletion too, and once it starts every later run pays for it.
const maxKeptStores = 48

// pruneStores removes the oldest kept stores beyond maxKeptStores.
func pruneStores(scratch string) error {
	old, err := filepath.Glob(filepath.Join(scratch, "daemon-*"))
	if err != nil || len(old) <= maxKeptStores {
		return err
	}
	sort.Slice(old, func(i, j int) bool {
		a, errA := os.Stat(old[i])
		b, errB := os.Stat(old[j])
		return errA == nil && errB == nil && a.ModTime().Before(b.ModTime())
	})
	for _, dir := range old[:len(old)-maxKeptStores] {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// start launches the child and waits until /healthz answers ok.
func (w *daemonWorkload) start(ctx context.Context) error {
	child, err := startServe(ctx, w.dataDir, len(w.clients))
	if err != nil {
		return err
	}
	w.child = child
	deadline := time.Now().Add(opTimeout)
	for {
		_, err := w.get(ctx, w.clients[0], "/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("omnc-serve never became healthy: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *daemonWorkload) get(ctx context.Context, c *http.Client, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.child.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// healthzMs is the median /healthz round trip over n requests.
func (w *daemonWorkload) healthzMs(ctx context.Context, n int) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := w.get(ctx, w.clients[0], "/healthz"); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// submitAndFetch is one operation: POST the Spec, follow the job's event
// stream to a terminal state, GET the artifact, verify its bytes.
func (w *daemonWorkload) submitAndFetch(ctx context.Context, c *http.Client, spec string, op int, tr *tracer) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	root := tr.begin("op", -1, op)
	defer tr.end(root)

	sp := tr.begin("http.submit", root, op)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.child.base+"/jobs", strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	submitMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, fmt.Errorf("POST /jobs reply: %w", err)
	}

	sp = tr.begin("http.wait", root, op)
	job, seen, err := w.followEvents(ctx, c, job.ID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if job.State != string(jobs.JobDone) {
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}

	sp = tr.begin("http.fetch", root, op)
	t1 := time.Now()
	art, err := w.get(ctx, c, "/runs/"+job.Run+"/artifacts/"+fig1Artifact)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkArtifact(art, serveBuild.want); err != nil {
		return nil, err
	}
	if want, err := specHash(spec); err != nil || job.Run != want {
		return nil, fmt.Errorf("job landed as run %q, the Spec's content address is %q (%v)", job.Run, want, err)
	}
	if tr != nil && job.StartedAt != nil && job.FinishedAt != nil {
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		w.mu.Lock()
		w.timings.submit = append(w.timings.submit, submitMs)
		w.timings.claimWait = append(w.timings.claimWait, ms(job.StartedAt.Sub(job.SubmittedAt)))
		w.timings.runLand = append(w.timings.runLand, ms(job.FinishedAt.Sub(*job.StartedAt)))
		w.timings.notify = append(w.timings.notify, ms(seen.Sub(*job.FinishedAt)))
		w.timings.artifact = append(w.timings.artifact, ms(time.Since(t1)))
		w.mu.Unlock()
	}
	sum := sha256.Sum256(art)
	return fmt.Appendf(nil, "%s sha256=%x\n", job.State, sum), nil
}

func specHash(spec string) (string, error) {
	s, err := jobs.Decode([]byte(spec))
	if err != nil {
		return "", err
	}
	return s.Hash(), nil
}

// followEvents reads the job's server-sent events until a terminal state and
// returns the last document with the time it was seen. The stream is read
// to its end so the connection goes back to the client's pool.
func (w *daemonWorkload) followEvents(ctx context.Context, c *http.Client, id string) (jobDoc, time.Time, error) {
	var last jobDoc
	var seen time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.child.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return last, seen, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return last, seen, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, seen, fmt.Errorf("GET /jobs/%s/events: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			return last, seen, fmt.Errorf("event for %s: %w", id, err)
		}
		seen = time.Now()
	}
	if err := sc.Err(); err != nil {
		return last, seen, err
	}
	if !jobs.JobState(last.State).Terminal() {
		return last, seen, fmt.Errorf("event stream for %s ended in state %q", id, last.State)
	}
	return last, seen, nil
}

// warmupOp is the stream's last Spec, a fresh one of its own: replaying
// operation 0 would turn the window's first submission into a resubmission.
func (w *daemonWorkload) warmupOp() int { return len(w.in.Specs) - 1 }

func (w *daemonWorkload) op(ctx context.Context, i int, tr *tracer) ([]byte, error) {
	if i != w.warmupOp() {
		w.kept.Store(true)
	}
	return w.submitAndFetch(ctx, w.clients[i%len(w.clients)], w.in.Specs[i], i, tr)
}

// referenceOp points past the window, at the stream's fresh extra Specs.
func (w *daemonWorkload) referenceOp(i int) int {
	return referenceBase(len(w.in.OpSeeds), len(w.clients)) + i
}

func (w *daemonWorkload) journal() string { return filepath.Join(w.dataDir, "queue.jsonl") }

func (w *daemonWorkload) usage() (float64, float64) {
	pid := w.child.cmd.Process.Pid
	return procCPUSeconds(pid), procRSSMB(pid)
}

func (w *daemonWorkload) inputHash() string { return w.hash }

// close tears the workload down, whatever state the run ended in: the child
// is stopped and waited for. The data directory is removed unless a window
// ran on it. A window's store is some 16 000 small files, and deleting them
// slows the daemon runs of the next minutes by up to a third on ext4 mounted
// with discard (back-to-back runs read 540, 500, 420, 395, 370 jobs/s with
// deletion and hold 515 within 1.5 % without), so the store stays under the
// git-ignored build directory, where pruneStores bounds how many pile up.
func (w *daemonWorkload) close() error {
	if w.child != nil {
		w.child.stop()
		w.child = nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.kept.Load() {
		return nil
	}
	return os.RemoveAll(w.dataDir)
}

// layerMetrics fills the serve layer's metrics after a traced window: the
// loaded /healthz round trip (it lists the whole queue), a graceful restart
// over the window's journal, and replay of a copy of that journal.
func (w *daemonWorkload) layerMetrics(ctx context.Context, m map[string]float64, win windowInfo) error {
	t := &w.timings
	m["serve.submit_ms_p50"] = median(t.submit)
	m["serve.claim_wait_ms_p50"] = median(t.claimWait)
	m["serve.run_land_ms_p50"] = median(t.runLand)
	m["serve.notify_ms_p50"] = median(t.notify)
	m["serve.artifact_ms_p50"] = median(t.artifact)
	m["serve.healthz_ms_p50.empty"] = w.healthzEmpty
	loaded, err := w.healthzMs(ctx, 20)
	if err != nil {
		return err
	}
	m["serve.healthz_ms_p50.loaded"] = loaded
	if run := m["jobs.run_ms_p50"]; run > 0 {
		m["serve.overhead_ratio"] = win.opP50Ms / run
	}
	m["serve.op_ms_p90"] = percentile(win.opMs, 90)

	begin := time.Now()
	w.child.stop()
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if err := w.start(ctx); err != nil {
		return fmt.Errorf("restart over the window's journal: %w", err)
	}
	m["serve.restart_ms"] = float64(time.Since(begin).Nanoseconds()) / 1e6

	buf, err := os.ReadFile(w.journal())
	if err != nil {
		return err
	}
	ms, err := replayMs(buf)
	if err != nil {
		return err
	}
	m["jobs.replay_ms_per_1k"] = ms / (float64(bytes.Count(buf, []byte{'\n'})) / 1000)
	m["jobs.journal_bytes_per_job"] = float64(len(buf)) / float64(bytes.Count(buf, []byte(`"op":"submit"`)))
	return nil
}

// replayMs times jobs.OpenQueue over a private copy of a journal.
func replayMs(journal []byte) (float64, error) {
	scratch, err := scratchDir()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "queue.jsonl")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		return 0, err
	}
	begin := time.Now()
	q, err := jobs.OpenQueue(path)
	ms := float64(time.Since(begin).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	return ms, q.Close()
}
