package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"omnc/internal/jobs"
)

// testDaemon is a server with one worker running against temp state.
type testDaemon struct {
	s      *server
	queue  *jobs.Queue
	ts     *httptest.Server
	cancel context.CancelFunc
	wg     *sync.WaitGroup
}

func startDaemon(t *testing.T) *testDaemon {
	return startDaemonOpts(t, 1, nil)
}

// startDaemonOpts boots a daemon with the given worker count; configure (if
// non-nil) runs after construction but before any worker starts, so tests
// can tune retries or interpose fault injection race-free.
func startDaemonOpts(t *testing.T, workers int, configure func(s *server, q *jobs.Queue)) *testDaemon {
	t.Helper()
	return startDaemonAt(t, t.TempDir(), workers, configure)
}

// startDaemonAt is startDaemonOpts over an existing data directory, so a
// test can seed queue.jsonl before the daemon replays it.
func startDaemonAt(t *testing.T, dir string, workers int, configure func(s *server, q *jobs.Queue)) *testDaemon {
	t.Helper()
	q, err := jobs.OpenQueue(filepath.Join(dir, "queue.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := jobs.OpenStore(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(q, st)
	if configure != nil {
		configure(s, q)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(ctx, ctx)
		}()
	}
	ts := httptest.NewServer(s.handler())
	d := &testDaemon{s: s, queue: q, ts: ts, cancel: cancel, wg: &wg}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
		q.Close()
	})
	return d
}

func (d *testDaemon) post(t *testing.T, body string) (jobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(d.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func (d *testDaemon) get(t *testing.T, path string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(d.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// waitDone polls the job endpoint until the job reaches a terminal state.
func (d *testDaemon) waitDone(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st jobStatus
		if resp := d.get(t, "/jobs/"+id, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
		}
		switch st.State {
		case jobs.JobDone:
			return st
		case jobs.JobFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobStatus{}
}

func TestSubmitRunAndFetchArtifact(t *testing.T) {
	d := startDaemon(t)
	st, resp := d.post(t, `{"version":1,"kind":"topo","seed":3,"nodes":60,"density":6}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	fin := d.waitDone(t, st.ID)
	if fin.Run == "" {
		t.Fatal("done job has no run id")
	}

	var runs struct {
		Runs []jobs.StoredRun `json:"runs"`
	}
	d.get(t, "/runs", &runs)
	if len(runs.Runs) != 1 || runs.Runs[0].ID != fin.Run {
		t.Fatalf("runs index = %+v", runs.Runs)
	}

	var run jobs.StoredRun
	if resp := d.get(t, "/runs/"+fin.Run, &run); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s: %d", fin.Run, resp.StatusCode)
	}
	if run.Kind != "topo" || len(run.Artifacts) != 1 || run.Artifacts[0].Name != "links.csv" {
		t.Fatalf("run head = %+v", run)
	}

	resp2, err := http.Get(d.ts.URL + "/runs/" + fin.Run + "/artifacts/links.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("artifact content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if !strings.HasPrefix(buf.String(), "from,to,probability,distance_m\n") {
		t.Fatalf("artifact bytes start %q", buf.String()[:40])
	}

	// The daemon's landed bytes must equal what a direct jobs.Run of the
	// same Spec produces.
	direct, err := jobs.Run(context.Background(), jobs.Spec{
		Version: jobs.SpecVersion, Kind: jobs.KindTopo, Seed: 3, Nodes: 60, Density: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), direct.Artifact("links.csv").Data) {
		t.Fatal("daemon artifact differs from direct jobs.Run")
	}
}

// TestDaemonMatchesGoldenFigure is the service-level twin of omnc-fig's
// golden-file test: a comparison job submitted over HTTP must land the
// byte-identical fig2l_gains.csv the CLI writes for the same flags.
func TestDaemonMatchesGoldenFigure(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "omnc-fig", "testdata", "fig2l_gains.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t)
	st, resp := d.post(t, `{"version":1,"kind":"comparison","seed":7,"sessions":2,"duration":60,"figures":["2l"],"workers":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	fin := d.waitDone(t, st.ID)

	resp2, err := http.Get(d.ts.URL + "/runs/" + fin.Run + "/artifacts/fig2l_gains.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("daemon-landed figure differs from the CLI golden file (%d vs %d bytes)",
			buf.Len(), len(golden))
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	d := startDaemon(t)
	for _, body := range []string{
		`not json`,
		`{"version":1,"kind":"warp"}`,
		`{"version":1,"kind":"topo","sessionz":3}`,
		`{"version":9,"kind":"topo"}`,
	} {
		if _, resp := d.post(t, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: got %d, want 400", body, resp.StatusCode)
		}
	}
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	d.get(t, "/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected specs were enqueued: %+v", list.Jobs)
	}
}

func TestJobEventsStreamToCompletion(t *testing.T) {
	d := startDaemon(t)
	st, _ := d.post(t, `{"version":1,"kind":"topo","seed":5,"nodes":60,"density":6}`)

	resp, err := http.Get(d.ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var last jobStatus
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatal(err)
		}
	}
	// The stream closes itself after the terminal event.
	if events == 0 {
		t.Fatal("no events streamed")
	}
	if last.State != jobs.JobDone {
		t.Fatalf("final streamed state = %s", last.State)
	}
	if last.Run == "" {
		t.Fatal("final event missing run id")
	}
}

func TestHealthz(t *testing.T) {
	d := startDaemon(t)
	var h struct {
		Status string `json:"status"`
		Build  struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		CPUs int `json:"cpus"`
	}
	if resp := d.get(t, "/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Build.GoVersion == "" || h.CPUs < 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestUnknownJobAndRunAre404(t *testing.T) {
	d := startDaemon(t)
	if resp := d.get(t, "/jobs/j999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp := d.get(t, "/runs/0123456789abcdef", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d", resp.StatusCode)
	}
	if resp := d.get(t, "/runs/../escape", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal run id: %d", resp.StatusCode)
	}
}

// TestShutdownRequeuesRunningJob exercises the drain path: cancel the run
// context while a long comparison is in flight and the job must return to
// pending with a requeue recorded, ready for the next daemon.
func TestShutdownRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	q, err := jobs.OpenQueue(filepath.Join(dir, "queue.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := jobs.OpenStore(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(q, st)
	j, err := q.Submit(jobs.Spec{
		Version: jobs.SpecVersion, Kind: jobs.KindComparison,
		Seed: 1, Sessions: 8, Duration: 200, Figures: []string{"2l"},
	})
	if err != nil {
		t.Fatal(err)
	}

	claimCtx, stopClaim := context.WithCancel(context.Background())
	runCtx, stopRun := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.worker(claimCtx, runCtx)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, _ := q.Get(j.ID); got.State == jobs.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	stopClaim()
	stopRun()
	wg.Wait()

	got, _ := q.Get(j.ID)
	if got.State != jobs.JobPending {
		t.Fatalf("after shutdown job is %s, want pending", got.State)
	}
	if got.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", got.Requeues)
	}
	q.Close()

	// The next daemon picks the journal up with the job claimable again.
	q2, err := jobs.OpenQueue(filepath.Join(dir, "queue.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	j2, ok, err := q2.Claim()
	if err != nil || !ok {
		t.Fatalf("claim after restart: ok=%v err=%v", ok, err)
	}
	if j2.ID != j.ID {
		t.Fatalf("claimed %s, want %s", j2.ID, j.ID)
	}
}

func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real listener")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serve(ctx, "127.0.0.1:0", dir, 1, time.Second, 2, time.Second)
	}()
	// The port is dynamic; probe the journal to know the daemon is up, then
	// stop it — the wiring (queue, store, listener, drain) is what this
	// exercises; handler behaviour is covered via httptest above.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "queue.jsonl")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never created its state")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if _, err := os.Stat(filepath.Join(dir, "runs")); err != nil {
		t.Fatal(err)
	}
}
