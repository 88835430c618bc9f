package harness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relaxfault/internal/journal"
)

type payload struct {
	A float64 `json:"a"`
	B int     `json:"b"`
}

// runSec is the test section "run" under fingerprint fp1: chunk i covers
// trials [10i, 10i+10).
var runSec = Section{Name: "run", Fingerprint: "fp1", Chunking: Chunking{Size: 10, Trials: 100}}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	s := openLogStore(t, path)
	cp := s.Section(runSec)
	chunks := map[int]payload{0: {A: 0.1, B: 1}, 2: {A: 2.5e-17, B: 2}, 5: {A: -3, B: 5}}
	for i, p := range chunks {
		if err := cp.Put(i, p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Rebuilt from the log alone, the view is the same whatever order the
	// chunks were logged in.
	s2 := openLogStore(t, path)
	if got, err := s2.Snapshot(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("view rebuilt from the log differs (%v):\n%s\nwant\n%s", err, got, want)
	}
	if s2.Verified() != 3 {
		t.Errorf("Verified() = %d, want 3", s2.Verified())
	}
	cp2 := s2.Section(runSec)
	if got := cp2.Indexes(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("Indexes() = %v, want [0 2 5]", got)
	}
	for i, want := range chunks {
		raw, ok := cp2.Get(i)
		if !ok {
			t.Fatalf("chunk %d missing after reload", i)
		}
		var got payload
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("chunk %d: got %+v, want %+v (float64 must round-trip exactly)", i, got, want)
		}
	}
	if _, ok := cp2.Get(1); ok {
		t.Error("Get(1) found a chunk that was never stored")
	}
}

func TestOpenStoreResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	s := openLogStore(t, path)
	if got := s.Section(Section{Name: "x", Fingerprint: "fp"}).Indexes(); len(got) != 0 {
		t.Errorf("fresh store has chunks %v", got)
	}
	if j, err := journal.Load(path); err != nil || j.Open.Type != journal.TypeOpen {
		t.Errorf("opening a missing log must start a fresh one: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Store
	cp := s.Section(runSec)
	if cp != nil {
		t.Error("nil Store returned a non-nil section")
	}
	if err := cp.Put(0, payload{}); err != nil {
		t.Error(err)
	}
	cp.PruneAbove(0)
	if _, ok := cp.Get(0); ok {
		t.Error("nil checkpoint returned a chunk")
	}
	if cp.Indexes() != nil {
		t.Error("nil checkpoint returned indexes")
	}
	if s.Journal() != nil || s.Verified() != 0 {
		t.Error("nil store has a log")
	}

	var m *Monitor
	m.SetLabel("x")
	m.Expect(10)
	m.WorkerDone(0, 5)
	m.Warnf("boom %d", 1)
	if m.DoneTrials() != 0 {
		t.Error("nil monitor reported nonzero state")
	}
	m.Start()() // no-op stop
}

func TestMonitorCounters(t *testing.T) {
	var buf bytes.Buffer
	m := NewMonitor(&buf, 0)
	m.SetLabel("fig10")
	m.Expect(100)
	m.WorkerDone(0, 40)
	if m.DoneTrials() != 40 {
		t.Errorf("DoneTrials = %d", m.DoneTrials())
	}
	// The benchmark module checks Skipped after every leg; no trial is
	// ever skipped.
	if m.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", m.Skipped())
	}
	m.Warnf("disk full: %s", "/tmp/x")
	if !strings.Contains(buf.String(), "harness: warning: disk full: /tmp/x") {
		t.Errorf("Warnf missing from output:\n%s", buf.String())
	}
}

func TestMonitorReportAndWatchdog(t *testing.T) {
	var buf bytes.Buffer
	m := NewMonitor(&buf, time.Second)
	m.SetLabel("fig11")
	m.Expect(1000)
	m.WorkerDone(0, 250)
	m.report(time.Now())
	out := buf.String()
	if !strings.Contains(out, "harness[fig11]: 250/1000 trials (25.0%)") {
		t.Errorf("progress line missing:\n%s", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Errorf("ETA missing:\n%s", out)
	}
	// Outside an engine run no worker is registered, so no watchdog
	// applies (TestWatchdogNamesStalledWorker covers the per-worker one).
	if strings.Contains(out, "watchdog") {
		t.Errorf("watchdog fired with no registered worker:\n%s", out)
	}
}

func TestFingerprint(t *testing.T) {
	a := Fingerprint("run", 16384, 1.5)
	if a != Fingerprint("run", 16384, 1.5) {
		t.Error("fingerprint not deterministic")
	}
	if a == Fingerprint("run", 16384, 1.6) {
		t.Error("fingerprint ignored a changed value")
	}
	// Part boundaries matter: ("ab","c") must differ from ("a","bc").
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("fingerprint concatenates parts ambiguously")
	}
}
