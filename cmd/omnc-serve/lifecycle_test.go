package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"omnc/internal/jobs"
	"omnc/internal/metrics"
)

// del issues DELETE /jobs/{id} and decodes the body on success.
func (d *testDaemon) del(t *testing.T, id string) (jobStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, d.ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// waitState polls the job until it reaches want or the deadline passes.
func (d *testDaemon) waitState(t *testing.T, id string, want jobs.JobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st jobStatus
		if resp := d.get(t, "/jobs/"+id, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobStatus{}
}

// longSpec is a comparison job big enough to still be running when the test
// cancels it.
const longSpec = `{"version":1,"kind":"comparison","seed":1,"sessions":8,"duration":200,"figures":["2l"]}`

func TestCancelPendingJobHTTP(t *testing.T) {
	// No workers: the job stays pending until the DELETE lands.
	d := startDaemonOpts(t, 0, nil)
	st, resp := d.post(t, `{"version":1,"kind":"topo","seed":3,"nodes":60,"density":6}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	got, resp := d.del(t, st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: %d", st.ID, resp.StatusCode)
	}
	if got.State != jobs.JobCanceled || got.FinishedAt == nil {
		t.Fatalf("after DELETE: %+v, want canceled with FinishedAt", got.Job)
	}
	// GET agrees, and a second DELETE is an idempotent 200.
	var again jobStatus
	d.get(t, "/jobs/"+st.ID, &again)
	if again.State != jobs.JobCanceled {
		t.Fatalf("GET after cancel: %s", again.State)
	}
	if _, resp := d.del(t, st.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE: %d", resp.StatusCode)
	}

	// The SSE stream treats canceled as terminal: it emits the canceled
	// status and closes itself.
	sse, err := http.Get(d.ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	sc := bufio.NewScanner(sse.Body)
	var last jobStatus
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last.State != jobs.JobCanceled {
		t.Fatalf("SSE final state = %s, want canceled", last.State)
	}
}

func TestCancelRunningJobHTTP(t *testing.T) {
	d := startDaemon(t)
	st, _ := d.post(t, longSpec)
	d.waitState(t, st.ID, jobs.JobRunning)

	got, resp := d.del(t, st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: %d", resp.StatusCode)
	}
	if got.State != jobs.JobCanceled {
		t.Fatalf("DELETE returned state %s, want canceled", got.State)
	}
	// The worker must observe the per-job cancel, leave the terminal state
	// alone (no requeue, no fail) and return to the pool: a fresh quick job
	// completes on the same single worker.
	quick, _ := d.post(t, `{"version":1,"kind":"topo","seed":4,"nodes":60,"density":6}`)
	fin := d.waitDone(t, quick.ID)
	if fin.Run == "" {
		t.Fatal("post-cancel job landed no run")
	}
	var after jobStatus
	d.get(t, "/jobs/"+st.ID, &after)
	if after.State != jobs.JobCanceled || after.Requeues != 0 {
		t.Fatalf("canceled job drifted: %+v", after.Job)
	}
	// The live bits are cleaned up once the worker drains the job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.s.mu.Lock()
		stale := len(d.s.progress) + len(d.s.cancels)
		d.s.mu.Unlock()
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress/cancel registries still hold %d entries", stale)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelConflictsAndUnknown(t *testing.T) {
	d := startDaemon(t)
	if _, resp := d.del(t, "j999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
	st, _ := d.post(t, `{"version":1,"kind":"topo","seed":5,"nodes":60,"density":6}`)
	d.waitDone(t, st.ID)
	if _, resp := d.del(t, st.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE done job: %d, want 409", resp.StatusCode)
	}
}

func TestSubmitPriorityKnob(t *testing.T) {
	// No workers, so dispatch order is observable through Claim.
	d := startDaemonOpts(t, 0, nil)
	lo, resp := d.post(t, `{"version":1,"kind":"fig1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	resp2, err := http.Post(d.ts.URL+"/jobs?priority=7", "application/json",
		strings.NewReader(`{"version":1,"kind":"multi","sessions":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var hi jobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&hi); err != nil {
		t.Fatal(err)
	}
	if hi.Priority != 7 {
		t.Fatalf("submitted priority = %d, want 7", hi.Priority)
	}
	// Priority is dispatch order, not hash input.
	if hi.Spec.Hash() == lo.Spec.Hash() {
		t.Fatal("distinct specs should hash apart (sanity)")
	}
	j, ok, err := d.queue.Claim()
	if err != nil || !ok || j.ID != hi.ID {
		t.Fatalf("claim = %+v ok=%v err=%v, want the priority-7 job first", j, ok, err)
	}
	// A malformed priority is a 400, not a silently-default submit.
	resp3, err := http.Post(d.ts.URL+"/jobs?priority=high", "application/json",
		strings.NewReader(`{"version":1,"kind":"fig1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: %d, want 400", resp3.StatusCode)
	}
}

// flakyQueue wraps the real queue, failing the first n Claims — the
// transient-journal-error regime that used to kill worker slots for good.
type flakyQueue struct {
	*jobs.Queue
	failures atomic.Int32
}

func (f *flakyQueue) Claim() (jobs.Job, bool, error) {
	if f.failures.Add(-1) >= 0 {
		return jobs.Job{}, false, errors.New("injected journal error")
	}
	return f.Queue.Claim()
}

func TestWorkerSurvivesClaimErrors(t *testing.T) {
	var fq *flakyQueue
	d := startDaemonOpts(t, 1, func(s *server, q *jobs.Queue) {
		fq = &flakyQueue{Queue: q}
		fq.failures.Store(3)
		s.queue = fq
	})
	st, _ := d.post(t, `{"version":1,"kind":"topo","seed":6,"nodes":60,"density":6}`)
	// Three claim errors back off ~(100+200+400)ms, then the worker claims
	// and completes the job — the slot never died.
	fin := d.waitDone(t, st.ID)
	if fin.Run == "" {
		t.Fatal("job completed with no run")
	}
	if left := fq.failures.Load(); left > 0 {
		t.Fatalf("worker completed the job without consuming the injected errors (%d left)", left)
	}
	// The pool is still at full strength, and /healthz says so.
	var h struct {
		Workers int `json:"workers"`
	}
	if resp := d.get(t, "/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	if h.Workers != 1 {
		t.Fatalf("healthz workers = %d, want 1", h.Workers)
	}
}

func TestJobPanicFailsJobNotDaemon(t *testing.T) {
	d := startDaemonOpts(t, 1, func(s *server, q *jobs.Queue) {
		inner := s.run
		s.run = func(ctx context.Context, sp jobs.Spec, p *metrics.Progress) (*jobs.Result, error) {
			if sp.Kind == jobs.KindMulti {
				panic("synthetic experiment bug")
			}
			return inner(ctx, sp, p)
		}
	})
	st, _ := d.post(t, `{"version":1,"kind":"multi","sessions":1}`)
	deadline := time.Now().Add(time.Minute)
	var fin jobStatus
	for {
		d.get(t, "/jobs/"+st.ID, &fin)
		if fin.State == jobs.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("panicking job stuck in %s", fin.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(fin.Error, "job panicked: synthetic experiment bug") {
		t.Fatalf("failure reason %q does not carry the panic", fin.Error)
	}
	// The stranded progress entry is the bug this guards against.
	d.s.mu.Lock()
	stale := len(d.s.progress) + len(d.s.cancels)
	d.s.mu.Unlock()
	if stale != 0 {
		t.Fatalf("panic stranded %d progress/cancel entries", stale)
	}
	// The same worker is alive and runs the next job to completion.
	ok, _ := d.post(t, `{"version":1,"kind":"topo","seed":7,"nodes":60,"density":6}`)
	d.waitDone(t, ok.ID)
}

func TestRetryWithBackoffThenDeadLetter(t *testing.T) {
	var attempts atomic.Int32
	d := startDaemonOpts(t, 1, func(s *server, q *jobs.Queue) {
		q.MaxRetries = 2
		q.RetryBase = 20 * time.Millisecond
		s.run = func(ctx context.Context, sp jobs.Spec, p *metrics.Progress) (*jobs.Result, error) {
			attempts.Add(1)
			return nil, jobs.Retryable(fmt.Errorf("transient store outage"))
		}
	})
	st, _ := d.post(t, `{"version":1,"kind":"fig1"}`)
	deadline := time.Now().Add(time.Minute)
	var fin jobStatus
	for {
		d.get(t, "/jobs/"+st.ID, &fin)
		if fin.State == jobs.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after %d attempts", fin.State, attempts.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("run attempts = %d, want 3 (1 + 2 retries)", got)
	}
	if fin.Attempts != 3 || fin.Error != "transient store outage" {
		t.Fatalf("dead-lettered job = %+v, want attempts 3 with the last reason", fin.Job)
	}
}

func TestArtifactContentTypes(t *testing.T) {
	cases := map[string]string{
		"fig2l_gains.csv": "text/csv; charset=utf-8",
		"report.json":     "application/json",
		"trace.jsonl":     "application/x-ndjson", // not the unregistered application/jsonl
		"plot.svg":        "image/svg+xml",
		"blob.bin":        "application/octet-stream",
	}
	for name, want := range cases {
		if got := artifactContentType(name); got != want {
			t.Errorf("artifactContentType(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	var attempts atomic.Int32
	d := startDaemonOpts(t, 1, func(s *server, q *jobs.Queue) {
		q.MaxRetries = 2
		q.RetryBase = 20 * time.Millisecond
		inner := s.run
		s.run = func(ctx context.Context, sp jobs.Spec, p *metrics.Progress) (*jobs.Result, error) {
			if attempts.Add(1) == 1 {
				return nil, jobs.Retryable(fmt.Errorf("first attempt blip"))
			}
			return inner(ctx, sp, p)
		}
	})
	st, _ := d.post(t, `{"version":1,"kind":"topo","seed":8,"nodes":60,"density":6}`)
	fin := d.waitDone(t, st.ID)
	if fin.Attempts != 2 || fin.Run == "" || fin.Error != "" {
		t.Fatalf("recovered job = %+v, want done at attempt 2 with a run and no error", fin.Job)
	}
}

// TestRetiredKindInOldJournalFailsLoudly replays a journal captured verbatim
// from the last build that had the bench kind: a pending bench job (with its
// iters field) ahead of a topo job. The upgrade must degrade loudly, not
// fatally — the daemon boots, the bench job fails terminally on its first
// claim with the unknown-kind reason (no retry budget is spent on it), and
// the job behind it runs with its journaled fields intact.
func TestRetiredKindInOldJournalFailsLoudly(t *testing.T) {
	const journal = `{"op":"submit","id":"j1","time":"2026-09-28T22:13:23.596781875Z","spec":{"version":1,"kind":"bench","iters":3}}
{"op":"submit","id":"j2","time":"2026-09-28T22:13:23.597590531Z","spec":{"version":1,"kind":"topo","seed":3,"nodes":60,"density":6},"priority":-1}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "queue.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemonAt(t, dir, 1, func(s *server, q *jobs.Queue) {
		q.MaxRetries = 2
		q.RetryBase = time.Millisecond
	})
	next := d.waitDone(t, "j2")
	if next.Run == "" || next.Priority != -1 || next.Spec.Seed != 3 || next.Spec.Nodes != 60 {
		t.Fatalf("job behind the retired kind drifted: %+v", next.Job)
	}
	var old jobStatus
	d.get(t, "/jobs/j1", &old)
	if old.State != jobs.JobFailed || old.Attempts != 1 {
		t.Fatalf("retired-kind job = %+v, want failed at attempt 1", old.Job)
	}
	if !strings.Contains(old.Error, `unknown kind "bench"`) || !strings.Contains(old.Error, jobs.KindTopo) {
		t.Fatalf("failure reason %q does not name the unknown kind and the valid ones", old.Error)
	}
}
