package harness

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxfault/internal/runtrace"
)

func TestEngineRunsEveryChunkExactlyOnce(t *testing.T) {
	const n = 257
	var mu sync.Mutex
	seen := make(map[int]int)
	workersSeen := make(map[int]bool)
	e := Engine{Exec{Workers: 4}}
	err := e.Run(context.Background(), n, func(w, k int) (int64, bool) {
		mu.Lock()
		seen[k]++
		workersSeen[w] = true
		mu.Unlock()
		return 1, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("covered %d chunks, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("chunk %d ran %d times", k, c)
		}
	}
	for w := range workersSeen {
		if w < 0 || w >= 4 {
			t.Errorf("worker id %d outside pool", w)
		}
	}
}

func TestEngineWorkerRetire(t *testing.T) {
	// A worker returning cont=false stops claiming; with one worker the
	// remaining chunks are never run.
	var ran atomic.Int64
	e := Engine{Exec{Workers: 1}}
	err := e.Run(context.Background(), 100, func(_, k int) (int64, bool) {
		ran.Add(1)
		return 0, k < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 5 {
		t.Errorf("ran %d chunks, want 5 (chunks 0-3 continue, chunk 4 retires)", got)
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	e := Engine{Exec{Workers: 2}}
	err := e.Run(ctx, 1000, func(_, k int) (int64, bool) {
		if ran.Add(1) == 3 {
			cancel()
		}
		return 1, true
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 1000 {
		t.Errorf("cancellation did not stop the pool (ran %d chunks)", got)
	}
}

func TestEnginePoolClampedToChunks(t *testing.T) {
	var maxW atomic.Int64
	e := Engine{Exec{Workers: 16}}
	if err := e.Run(context.Background(), 3, func(w, _ int) (int64, bool) {
		if int64(w) > maxW.Load() {
			maxW.Store(int64(w))
		}
		return 1, true
	}); err != nil {
		t.Fatal(err)
	}
	if maxW.Load() > 2 {
		t.Errorf("worker id %d seen with only 3 chunks", maxW.Load())
	}
}

func TestEngineFeedsMonitor(t *testing.T) {
	var buf bytes.Buffer
	m := NewMonitor(&buf, 0)
	m.Expect(8)
	e := Engine{Exec{Workers: 2, Mon: m}}
	if err := e.Run(context.Background(), 8, func(_, _ int) (int64, bool) {
		return 1, true
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.DoneTrials(); got != 8 {
		t.Errorf("monitor counted %d trials, want 8", got)
	}
}

// TestEngineTraceAttribution runs a traced engine and checks the analyzed
// report's accounting invariants: every chunk appears as a span on some
// worker track, and each worker's five categories partition the wall window
// (within a small tolerance for the clamping Analyze applies).
func TestEngineTraceAttribution(t *testing.T) {
	const chunks, workers = 12, 3
	tr := runtrace.New()
	e := Engine{Exec{Workers: workers, Trace: tr}}
	if err := e.Run(context.Background(), chunks, func(_, _ int) (int64, bool) {
		time.Sleep(2 * time.Millisecond)
		return 5, true
	}); err != nil {
		t.Fatal(err)
	}

	rep := runtrace.Analyze(tr)
	if len(rep.Workers) != workers {
		t.Fatalf("attribution covers %d workers, want %d", len(rep.Workers), workers)
	}
	if rep.WallSeconds <= 0 {
		t.Fatalf("wall = %v", rep.WallSeconds)
	}
	totalChunks, totalTrials := 0, int64(0)
	for _, w := range rep.Workers {
		if w.Chunks == 0 {
			t.Errorf("worker %d recorded no chunk spans", w.Worker)
		}
		totalChunks += w.Chunks
		totalTrials += w.Trials
		sum := w.BusySeconds + w.ClaimSeconds + w.CheckpointSeconds + w.ReduceWaitSeconds + w.IdleSeconds
		if diff := sum - rep.WallSeconds; diff > 0.05*rep.WallSeconds || diff < -0.05*rep.WallSeconds {
			t.Errorf("worker %d categories sum to %vs, wall %vs", w.Worker, sum, rep.WallSeconds)
		}
		for _, p := range []float64{w.BusyPct, w.ClaimPct, w.CheckpointPct, w.ReduceWaitPct, w.IdlePct} {
			if p < 0 || p > 100 {
				t.Errorf("worker %d percentage %v outside [0,100]", w.Worker, p)
			}
		}
	}
	if totalChunks != chunks {
		t.Errorf("chunk spans cover %d chunks, want %d", totalChunks, chunks)
	}
	if totalTrials != chunks*5 {
		t.Errorf("trials = %d, want %d", totalTrials, chunks*5)
	}
	if rep.CriticalPathSeconds <= 0 || rep.CriticalPathSeconds > rep.WallSeconds*1.01 {
		t.Errorf("critical path %vs vs wall %vs", rep.CriticalPathSeconds, rep.WallSeconds)
	}

	// A nil tracer on the engine is the untraced default: no spans, no cost.
	e2 := Engine{Exec{Workers: 2}}
	if err := e2.Run(context.Background(), 4, func(_, _ int) (int64, bool) { return 1, true }); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogNamesStalledWorker(t *testing.T) {
	var buf bytes.Buffer
	var events syncBuffer
	m := NewMonitor(&buf, time.Second)
	m.SetEventWriter(&events)
	m.Expect(1000)
	m.StartWorkers(2)
	// Worker 0 keeps completing chunks; worker 1 went silent a minute ago.
	m.WorkerDone(0, 10)
	m.mu.Lock()
	m.workerLast[1] = time.Now().Add(-time.Minute).UnixNano()
	m.mu.Unlock()
	m.report(time.Now())
	out := buf.String()
	if !strings.Contains(out, "worker 1/2 stalled") {
		t.Errorf("stalled worker not named:\n%s", out)
	}
	if strings.Contains(out, "worker 0/2 stalled") {
		t.Errorf("healthy worker reported stalled:\n%s", out)
	}
	// The run is stalled only when every worker is.
	if strings.Contains(events.String(), `"stalled":true`) {
		t.Errorf("progress event stalled while worker 0 advances:\n%s", events.String())
	}

	// The warning latches: a second report does not repeat it.
	buf.Reset()
	m.report(time.Now())
	if strings.Contains(buf.String(), "stalled") {
		t.Errorf("per-worker watchdog fired twice:\n%s", buf.String())
	}

	// Progress from the stalled worker re-arms its watchdog.
	m.WorkerDone(1, 1)
	m.mu.Lock()
	m.workerLast[1] = time.Now().Add(-time.Minute).UnixNano()
	m.mu.Unlock()
	buf.Reset()
	m.report(time.Now())
	if !strings.Contains(buf.String(), "worker 1/2 stalled") {
		t.Errorf("per-worker watchdog did not re-arm:\n%s", buf.String())
	}
	m.mu.Lock()
	m.workerLast[0] = time.Now().Add(-time.Minute).UnixNano()
	m.mu.Unlock()
	m.report(time.Now())
	if !strings.Contains(events.String(), `"stalled":true`) {
		t.Errorf("progress event not stalled with every worker idle:\n%s", events.String())
	}

	// FinishWorkers ends tracking; an idle pool after the run is silent.
	m.FinishWorkers()
	buf.Reset()
	m.report(time.Now().Add(2 * time.Minute))
	if strings.Contains(buf.String(), "stalled") {
		t.Errorf("watchdog warned about a finished pool:\n%s", buf.String())
	}
}
