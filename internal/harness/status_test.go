package harness

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"relaxfault/internal/journal"
)

func TestMonitorStatus(t *testing.T) {
	m := NewMonitor(nil, 0)
	m.Expect(100)
	m.SetLabel("fig8")
	m.StartWorkers(2)
	m.WorkerClaim(0, 5)
	m.WorkerDone(1, 30)

	st := m.Status()
	if st.Experiment != "fig8" {
		t.Errorf("experiment = %q, want fig8", st.Experiment)
	}
	if st.TrialsDone != 30 || st.TrialsTotal != 100 {
		t.Errorf("trials %d/%d, want 30/100", st.TrialsDone, st.TrialsTotal)
	}
	if st.BusyWorkers != 1 {
		t.Errorf("busy_workers = %d, want 1 (worker 0 claimed, worker 1 idle)", st.BusyWorkers)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(st.Workers))
	}
	if w0 := st.Workers[0]; !w0.Busy || w0.Chunk != 5 {
		t.Errorf("worker 0 = %+v, want busy on chunk 5", w0)
	}
	if w1 := st.Workers[1]; w1.Busy || w1.Chunk != -1 || w1.Trials != 30 {
		t.Errorf("worker 1 = %+v, want idle with 30 trials", w1)
	}
	if _, err := time.Parse(time.RFC3339Nano, st.Time); err != nil {
		t.Errorf("status time %q: %v", st.Time, err)
	}

	// After the pool drains, the snapshot drops per-worker state.
	m.FinishWorkers()
	if st := m.Status(); len(st.Workers) != 0 || st.BusyWorkers != 0 {
		t.Errorf("post-run status still reports workers: %+v", st)
	}

	// Nil monitor: a valid, empty snapshot.
	var nilMon *Monitor
	if st := nilMon.Status(); st.TrialsDone != 0 || len(st.Workers) != 0 {
		t.Errorf("nil monitor status = %+v", st)
	}
}

func TestStatusHandler(t *testing.T) {
	m := NewMonitor(nil, 0)
	m.Expect(10)
	m.WorkerDone(0, 4)
	h := StatusHandler(m)

	// Before a log is attached there is no journal block.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
	var st0 Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st0); err != nil {
		t.Fatal(err)
	}
	if st0.Journal != nil {
		t.Errorf("journal health reported with no writer: %+v", st0.Journal)
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(journal.Record{Type: journal.TypeOpen, Schema: journal.Schema, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	m.SetJournal(w)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("invalid status JSON: %v\n%s", err, rec.Body.String())
	}
	if st.TrialsDone != 4 || st.TrialsTotal != 10 {
		t.Errorf("trials %d/%d, want 4/10", st.TrialsDone, st.TrialsTotal)
	}
	if st.Journal == nil {
		t.Fatal("journal health missing")
	}
	if st.Journal.Path != path || st.Journal.Sealed {
		t.Errorf("journal health = %+v, want open at %s", st.Journal, path)
	}
}

// TestProgressEventWorkerFields checks the JSONL progress event carries the
// pool-liveness fields the status endpoint shows: busy_workers and the
// per-worker trial rates.
func TestProgressEventWorkerFields(t *testing.T) {
	var buf syncBuffer
	m := NewMonitor(nil, 0)
	m.SetEventWriter(&buf)
	m.Expect(100)
	m.StartWorkers(2)
	m.WorkerClaim(0, 3)
	m.WorkerDone(1, 10)
	m.report(time.Now())

	var ev map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &ev); err != nil {
		t.Fatalf("invalid progress event: %v\n%s", err, buf.String())
	}
	if ev["type"] != "progress" {
		t.Fatalf("event type %v, want progress", ev["type"])
	}
	if got, _ := ev["busy_workers"].(float64); got != 1 {
		t.Errorf("busy_workers = %v, want 1", ev["busy_workers"])
	}
	rates, ok := ev["workers_trials_per_sec"].([]any)
	if !ok || len(rates) != 2 {
		t.Fatalf("workers_trials_per_sec = %v, want 2 entries", ev["workers_trials_per_sec"])
	}
}
