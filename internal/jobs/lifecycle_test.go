package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openQueue is the test helper: a fresh queue over path with fast retries.
func openQueue(t *testing.T, path string) *Queue {
	t.Helper()
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// claimAll drains the queue, returning the claim order.
func claimAll(t *testing.T, q *Queue) []string {
	t.Helper()
	var ids []string
	for {
		j, ok, err := q.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ids
		}
		ids = append(ids, j.ID)
	}
}

func TestQueuePriorityThenFIFOClaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	a, _ := q.SubmitPriority(sessionSpec(), 0)
	b, _ := q.SubmitPriority(Spec{Version: 1, Kind: KindFig1}, 5)
	c, _ := q.SubmitPriority(Spec{Version: 1, Kind: KindMulti}, 5)
	d, _ := q.SubmitPriority(Spec{Version: 1, Kind: KindTopo}, -3)
	e, _ := q.Submit(Spec{Version: 1, Kind: KindDrift})

	want := []string{b.ID, c.ID, a.ID, e.ID, d.ID}
	if got := claimAll(t, q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("claim order %v, want %v (priority desc, FIFO within)", got, want)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Priorities are journaled: the same order re-emerges after a restart
	// (recovery requeues the running jobs in submission order, but Claim
	// re-sorts by priority).
	q2 := openQueue(t, path)
	defer q2.Close()
	if got := claimAll(t, q2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("claim order after reopen %v, want %v", got, want)
	}
}

func TestQueueSetPriority(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	a, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})
	b, _ := q.Submit(Spec{Version: 1, Kind: KindMulti})

	j, err := q.SetPriority(b.ID, 9)
	if err != nil {
		t.Fatal(err)
	}
	if j.Priority != 9 {
		t.Fatalf("priority = %d, want 9", j.Priority)
	}
	// Reprioritization is durable.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q = openQueue(t, path)
	defer q.Close()
	if got := claimAll(t, q); fmt.Sprint(got) != fmt.Sprint([]string{b.ID, a.ID}) {
		t.Fatalf("claim order %v, want [%s %s]", got, b.ID, a.ID)
	}
	// Only pending jobs can move: a and b are running now.
	if _, err := q.SetPriority(a.ID, 1); err == nil {
		t.Fatal("SetPriority on a running job must fail")
	}
	if _, err := q.SetPriority("j99", 1); err == nil {
		t.Fatal("SetPriority on an unknown job must fail")
	}
}

// TestPriorityStaysOutOfContentAddress pins the design point: priority is
// queue metadata, so the same experiment submitted at any priority shares
// one content-addressed run directory.
func TestPriorityStaysOutOfContentAddress(t *testing.T) {
	q := openQueue(t, filepath.Join(t.TempDir(), "queue.jsonl"))
	defer q.Close()
	s := sessionSpec()
	urgent, err := q.SubmitPriority(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	casual, err := q.SubmitPriority(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if urgent.Spec.Hash() != s.Hash() || casual.Spec.Hash() != s.Hash() {
		t.Fatalf("priority leaked into the content address: %s / %s vs %s",
			urgent.Spec.Hash(), casual.Spec.Hash(), s.Hash())
	}
}

func TestQueueCancelPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	j, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})

	got, err := q.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCanceled || got.FinishedAt == nil {
		t.Fatalf("after cancel: %+v, want canceled with FinishedAt", got)
	}
	if !got.State.Terminal() {
		t.Fatal("canceled must be terminal")
	}
	// Canceled jobs are never claimed.
	if _, ok, _ := q.Claim(); ok {
		t.Fatal("canceled job was claimed")
	}
	// Cancel is idempotent.
	if again, err := q.Cancel(j.ID); err != nil || again.State != JobCanceled {
		t.Fatalf("second cancel: %+v err=%v", again, err)
	}
	// Worker-side transitions racing the cancel identify themselves.
	if err := q.Done(j.ID, "x"); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Done on canceled: %v, want ErrJobCanceled", err)
	}
	if err := q.Fail(j.ID, errors.New("boom")); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Fail on canceled: %v, want ErrJobCanceled", err)
	}
	if err := q.Requeue(j.ID); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Requeue on canceled: %v, want ErrJobCanceled", err)
	}
	// The cancellation is durable: a restart must not resurrect the job.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := openQueue(t, path)
	defer q2.Close()
	fin, ok := q2.Get(j.ID)
	if !ok || fin.State != JobCanceled {
		t.Fatalf("after reopen: %+v, want canceled", fin)
	}
	if _, ok, _ := q2.Claim(); ok {
		t.Fatal("canceled job resurrected by replay")
	}
	if _, err := q2.Cancel("j42"); err == nil {
		t.Fatal("cancel of unknown job must fail")
	}
}

func TestQueueCancelRunningSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	j, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})
	if _, ok, err := q.Claim(); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	got, err := q.Cancel(j.ID)
	if err != nil || got.State != JobCanceled {
		t.Fatalf("cancel running: %+v err=%v", got, err)
	}
	// The worker eventually notices and tries to close out its claim; the
	// canceled terminal record must win.
	if err := q.Requeue(j.ID); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("requeue after cancel: %v, want ErrJobCanceled", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash recovery requeues running jobs — but this one is canceled, not
	// running, so it stays dead.
	q2 := openQueue(t, path)
	defer q2.Close()
	fin, _ := q2.Get(j.ID)
	if fin.State != JobCanceled || fin.Requeues != 0 {
		t.Fatalf("after restart: %+v, want canceled with no requeues", fin)
	}
	// Cancel on a done job is a distinct, terminal conflict.
	d, _ := q2.Submit(Spec{Version: 1, Kind: KindMulti})
	if _, ok, _ := q2.Claim(); !ok {
		t.Fatal("claim")
	}
	if err := q2.Done(d.ID, "0123456789abcdef"); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Cancel(d.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("cancel done job: %v, want ErrJobTerminal", err)
	}
}

// claimWithin polls Claim until a job is claimable or the deadline passes —
// the backoff window is wall-clock, so tests wait it out.
func claimWithin(t *testing.T, q *Queue, d time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		j, ok, err := q.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatal("nothing claimable before the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestQueueRetryBackoffThenDeadLetter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	defer q.Close()
	q.MaxRetries = 2
	q.RetryBase = 30 * time.Millisecond

	j, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})
	first := claimWithin(t, q, time.Second)
	if first.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", first.Attempts)
	}
	if err := q.Fail(j.ID, Retryable(errors.New("transient io"))); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j.ID)
	if got.State != JobPending || got.NotBefore == nil || got.Error != "transient io" {
		t.Fatalf("after retryable fail: %+v, want pending with backoff and reason", got)
	}
	if !got.NotBefore.After(time.Now()) {
		t.Fatalf("backoff deadline %v is not in the future", got.NotBefore)
	}
	// Inside the backoff window the job is invisible to Claim.
	if _, ok, _ := q.Claim(); ok {
		t.Fatal("claimed a job inside its backoff window")
	}
	// The queue's own timer wakes waiters when the window expires.
	wake := q.Wait()
	select {
	case <-wake:
	case <-time.After(2 * time.Second):
		t.Fatal("backoff expiry never woke the queue")
	}
	second := claimWithin(t, q, time.Second)
	if second.ID != j.ID || second.Attempts != 2 {
		t.Fatalf("second claim: %+v, want attempt 2 of %s", second, j.ID)
	}
	// Second retry backs off twice as long (journal says so durably).
	if err := q.Fail(j.ID, Retryable(errors.New("transient io again"))); err != nil {
		t.Fatal(err)
	}
	third := claimWithin(t, q, 2*time.Second)
	if third.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", third.Attempts)
	}
	// Retries exhausted: the same retryable error now dead-letters.
	if err := q.Fail(j.ID, Retryable(errors.New("still broken"))); err != nil {
		t.Fatal(err)
	}
	fin, _ := q.Get(j.ID)
	if fin.State != JobFailed || fin.Error != "still broken" || fin.Attempts != 3 {
		t.Fatalf("after exhausted retries: %+v, want failed at attempt 3", fin)
	}
	if _, ok, _ := q.Claim(); ok {
		t.Fatal("dead-lettered job was claimed")
	}
}

func TestQueueNonRetryableAndZeroRetriesFailTerminally(t *testing.T) {
	q := openQueue(t, filepath.Join(t.TempDir(), "queue.jsonl"))
	defer q.Close()
	q.MaxRetries = 5

	// A plain error is terminal no matter the retry budget.
	a, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})
	claimWithin(t, q, time.Second)
	if err := q.Fail(a.ID, errors.New("bad spec semantics")); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(a.ID); got.State != JobFailed || got.Attempts != 1 {
		t.Fatalf("non-retryable fail: %+v, want failed at attempt 1", got)
	}

	// MaxRetries 0 turns even retryable failures terminal.
	q.MaxRetries = 0
	b, _ := q.Submit(Spec{Version: 1, Kind: KindMulti})
	claimWithin(t, q, time.Second)
	if err := q.Fail(b.ID, Retryable(errors.New("transient"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(b.ID); got.State != JobFailed {
		t.Fatalf("retryable fail with no budget: %+v, want failed", got)
	}

	// Retryable(nil) stays nil, so success paths cannot accidentally wrap.
	if Retryable(nil) != nil {
		t.Fatal("Retryable(nil) must be nil")
	}
	if IsRetryable(errors.New("x")) {
		t.Fatal("plain errors must not read as retryable")
	}
	if !IsRetryable(fmt.Errorf("wrapped: %w", Retryable(errors.New("x")))) {
		t.Fatal("retryable marker must survive wrapping")
	}
}

// TestQueueBackoffSurvivesRestart: a retry deadline is journal state, so a
// daemon restart inside the backoff window keeps the job invisible until
// the window passes — and re-arms the wake timer.
func TestQueueBackoffSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	q.MaxRetries = 1
	q.RetryBase = 300 * time.Millisecond
	j, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})
	claimWithin(t, q, time.Second)
	if err := q.Fail(j.ID, Retryable(errors.New("flaky"))); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := openQueue(t, path)
	defer q2.Close()
	got, _ := q2.Get(j.ID)
	if got.State != JobPending || got.NotBefore == nil || got.Attempts != 1 {
		t.Fatalf("after restart: %+v, want pending attempt-1 with backoff", got)
	}
	if _, ok, _ := q2.Claim(); ok {
		t.Fatal("restart forgave the backoff window")
	}
	wake := q2.Wait()
	select {
	case <-wake:
	case <-time.After(2 * time.Second):
		t.Fatal("reopened queue never re-armed the backoff wake")
	}
	if again := claimWithin(t, q2, time.Second); again.ID != j.ID || again.Attempts != 2 {
		t.Fatalf("claim after restart+backoff: %+v", again)
	}
}

// TestQueueReplayLifecycleOpsWithTornTail drives every new journal op —
// priority, cancel, retry — through a crash (torn final line), a recovery,
// and post-recovery appends, proving replay and truncation hold for the
// extended record set.
func TestQueueReplayLifecycleOpsWithTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q := openQueue(t, path)
	q.MaxRetries = 3
	q.RetryBase = time.Millisecond

	j1, _ := q.Submit(Spec{Version: 1, Kind: KindFig1})             // will be canceled
	j2, _ := q.SubmitPriority(Spec{Version: 1, Kind: KindMulti}, 4) // will retry
	j3, _ := q.Submit(Spec{Version: 1, Kind: KindTopo})             // stays pending
	if _, err := q.SetPriority(j3.ID, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	if got := claimWithin(t, q, time.Second); got.ID != j2.ID {
		t.Fatalf("claimed %s, want the high-priority %s", got.ID, j2.ID)
	}
	if err := q.Fail(j2.ID, Retryable(errors.New("blip"))); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: a torn fragment after the lifecycle records.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"canc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2 := openQueue(t, path)
	g1, _ := q2.Get(j1.ID)
	g2, _ := q2.Get(j2.ID)
	g3, _ := q2.Get(j3.ID)
	if g1.State != JobCanceled {
		t.Fatalf("j1 = %+v, want canceled", g1)
	}
	if g2.State != JobPending || g2.Priority != 4 || g2.Attempts != 1 || g2.Error != "blip" || g2.NotBefore == nil {
		t.Fatalf("j2 = %+v, want pending p4 attempt-1 'blip' with its backoff deadline", g2)
	}
	if g3.State != JobPending || g3.Priority != -1 {
		t.Fatalf("j3 = %+v, want pending p-1", g3)
	}
	// Post-recovery appends land on a clean boundary and survive another
	// replay intact.
	j4, err := q2.SubmitPriority(Spec{Version: 1, Kind: KindDrift}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	q3 := openQueue(t, path)
	defer q3.Close()
	// j2's 1 ms retry backoff is journal state; on a fast disk the two
	// replays finish inside it, so wait it out before reading the order.
	time.Sleep(time.Until(*g2.NotBefore))
	if got := claimAll(t, q3); fmt.Sprint(got) != fmt.Sprint([]string{j2.ID, j4.ID, j3.ID}) {
		t.Fatalf("claim order after double replay: %v, want [%s %s %s]", got, j2.ID, j4.ID, j3.ID)
	}
}
