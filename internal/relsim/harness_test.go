package relsim

// Tests for the hardened execution scheme shared by Run and CoverageStudy:
// cancellation latency, per-trial panic isolation with retry and skip
// accounting, and checkpoint/resume reproducing an uninterrupted run exactly.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/repair"
)

// batchPlanner implements repair.Planner but not repair.Incremental — the
// shape of planner the fleet simulator must reject instead of panicking.
type batchPlanner struct{}

func (batchPlanner) Name() string                           { return "batch-only" }
func (batchPlanner) PlanNode(f []*fault.Fault) *repair.Plan { return &repair.Plan{} }

func TestRunRejectsBatchOnlyPlanner(t *testing.T) {
	cfg := smallCfg()
	cfg.Planner = batchPlanner{}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("batch-only planner accepted")
	}
	msg := strings.ToLower(err.Error())
	for _, want := range []string{"batch-only", "incremental"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := ReplayNode(cfg, 0); err == nil {
		t.Error("ReplayNode accepted batch-only planner")
	}
}

func TestRunCtxCancelLatency(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 20000
	cfg.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var trials atomic.Int64
	cfg.trialHook = func(node int) {
		trials.Add(1)
		if node >= chunkSize { // first trial of the second chunk
			cancel()
		}
	}
	if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancellation is observed at the next chunk boundary: the in-flight
	// chunk finishes, nothing beyond it starts.
	if n := trials.Load(); n > 2*chunkSize {
		t.Errorf("ran %d trials after cancellation, want at most one more chunk (%d)", n, 2*chunkSize)
	}
}

func TestRunPanicIsolation(t *testing.T) {
	const bad = 1234
	var buf bytes.Buffer
	cfg := smallCfg()
	cfg.Mon = harness.NewMonitor(&buf, 0)
	cfg.trialHook = func(node int) {
		if node == bad {
			panic("injected trial fault")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedTrials != 1 {
		t.Fatalf("SkippedTrials = %d, want 1", res.SkippedTrials)
	}
	if len(res.Skips) != 1 || res.Skips[0].Trial != bad || res.Skips[0].Seed != cfg.Seed {
		t.Fatalf("skip record %+v does not pin down trial %d seed %d", res.Skips, bad, cfg.Seed)
	}
	if !strings.Contains(res.Skips[0].Err, "injected trial fault") {
		t.Errorf("skip error %q lost the panic message", res.Skips[0].Err)
	}
	if cfg.Mon.Skipped() != 1 {
		t.Errorf("monitor counted %d skips, want 1", cfg.Mon.Skipped())
	}
	if res.FaultyNodes == 0 {
		t.Error("no faulty nodes recorded; the run did not survive the panic")
	}
}

func TestRunPanicRetrySucceeds(t *testing.T) {
	cfg := smallCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A transient panic (first attempt only) is retried from the identical
	// RNG fork, so the result must match a clean run exactly — including
	// zero skip records.
	var fired atomic.Bool
	cfg.trialHook = func(node int) {
		if node == 500 && fired.CompareAndSwap(false, true) {
			panic("transient glitch")
		}
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("injected panic never fired")
	}
	if !sameResult(got, want) {
		t.Errorf("retried run differs from clean run:\n%+v\n%+v", want, got)
	}
}

func TestRunCheckpointResume(t *testing.T) {
	base := smallCfg()
	base.Nodes = 20000
	base.Workers = 1
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once the third chunk starts, so chunks 0-2
	// complete and checkpoint while 3-4 never run.
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	store, err := harness.OpenStore(path, false, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Checkpoint = store
	interrupted.trialHook = func(node int) {
		if node >= 2*chunkSize {
			cancel()
		}
	}
	if _, err := RunCtx(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}

	// Resume from the log: only the missing chunks are simulated, and the
	// final Result is bitwise identical to the uninterrupted run.
	store2, err := harness.OpenStore(path, true, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Checkpoint = store2
	var replayed atomic.Int64
	resumed.trialHook = func(int) { replayed.Add(1) }
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Errorf("resumed run differs from uninterrupted run:\n%+v\n%+v", want, got)
	}
	if n := replayed.Load(); n == 0 || n >= int64(base.Nodes) {
		t.Errorf("resume re-ran %d of %d trials, want a strict nonzero subset", n, base.Nodes)
	}
}

// covCfg returns a fast coverage-study configuration spanning several
// 2048-node chunks (~12% faulty at 1x FIT means ~5000 nodes for 600 faulty).
func covCfg(t *testing.T) CoverageConfig {
	t.Helper()
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.FaultyNodes = 600
	cfg.WayLimits = []int{1, 4}
	cfg.Planners = []repair.Planner{repair.NewRelaxFault(m, 16)}
	return cfg
}

// sameCoverage compares two coverage results exactly, including every curve's
// counters and capacity samples.
func sameCoverage(a, b *CoverageResult) bool {
	if a.FaultyNodes != b.FaultyNodes || a.TotalNodes != b.TotalNodes ||
		a.FaultyFraction != b.FaultyFraction || a.SkippedTrials != b.SkippedTrials ||
		len(a.Curves) != len(b.Curves) {
		return false
	}
	for i := range a.Curves {
		if !reflect.DeepEqual(a.Curves[i], b.Curves[i]) {
			return false
		}
	}
	return true
}

func TestCoverageWorkerInvariance(t *testing.T) {
	cfg := covCfg(t)
	var results []*CoverageResult
	for _, workers := range []int{1, 4, 0} {
		cfg.Workers = workers
		r, err := CoverageStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !sameCoverage(results[0], results[i]) {
			t.Errorf("worker count changed coverage results:\n%+v\n%+v",
				results[0].Curves[0], results[i].Curves[0])
		}
	}
}

func TestCoverageCheckpointResume(t *testing.T) {
	base := covCfg(t)
	base.Workers = 1
	want, err := CoverageStudy(base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cov.jsonl")
	store, err := harness.OpenStore(path, false, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Checkpoint = store
	interrupted.trialHook = func(node int) {
		if node >= covChunkSize {
			cancel()
		}
	}
	if _, err := CoverageStudyCtx(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted study: got %v, want context.Canceled", err)
	}

	store2, err := harness.OpenStore(path, true, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Checkpoint = store2
	var replayed atomic.Int64
	resumed.trialHook = func(int) { replayed.Add(1) }
	got, err := CoverageStudy(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCoverage(got, want) {
		t.Errorf("resumed study differs from uninterrupted study")
	}
	if n := replayed.Load(); n == 0 || n >= int64(want.TotalNodes) {
		t.Errorf("resume re-ran %d of %d nodes, want a strict nonzero subset", n, want.TotalNodes)
	}
}

func TestCoveragePanicIsolation(t *testing.T) {
	const bad = 100
	cfg := covCfg(t)
	cfg.trialHook = func(node int) {
		if node == bad {
			panic("injected coverage fault")
		}
	}
	res, err := CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedTrials != 1 {
		t.Fatalf("SkippedTrials = %d, want 1", res.SkippedTrials)
	}
	if len(res.Skips) != 1 || res.Skips[0].Trial != bad {
		t.Fatalf("skip record %+v does not pin down trial %d", res.Skips, bad)
	}
	if res.FaultyNodes < cfg.FaultyNodes {
		t.Errorf("study collected only %d faulty nodes", res.FaultyNodes)
	}
}
