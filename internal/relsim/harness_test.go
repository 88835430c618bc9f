package relsim

// Tests for the hardened execution scheme shared by Run and CoverageStudy:
// cancellation latency, a panicking trial failing its run with the trial's
// coordinates, and checkpoint/resume reproducing an uninterrupted run
// exactly.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"relaxfault/internal/stats"
)

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

// tripPlanner is an incremental planner that repairs nothing and panics on
// the one fault that arrives at hour at. The panic belongs to the trial that
// samples that fault, in a live run, a chunk replay and ReplayNode alike.
type tripPlanner struct{ at float64 }

type nopState struct{}

func (nopState) Reset() {}

func (tripPlanner) Name() string                              { return "trip" }
func (tripPlanner) PlanNodeInto(*repair.Plan, []*fault.Fault) {}
func (tripPlanner) NewState() repair.NodeState                { return nopState{} }
func (p tripPlanner) TryRepair(_ repair.NodeState, f *fault.Fault, _ int) bool {
	if f.AtHours == p.at {
		panic(fmt.Sprintf("trip at %v h", p.at))
	}
	return false
}

// TestRunPanicIsolation pins the fail-fast contract: a panicking trial fails
// the run with an error naming its section, chunk, trial, seed and panic
// value; ReplayNode reproduces the panic; and the chunk's replay reports it
// as an error.
func TestRunPanicIsolation(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 20000 // 5 chunks
	// The first permanent fault of chunk 2 trips the planner.
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	var sc fault.SampleScratch
	trial := -1
	for node := 2 * chunkSize; trial < 0; node++ {
		for _, f := range model.SampleNodeScratch(stats.NewRNG(cfg.Seed).Fork(uint64(node)), &sc).Faults {
			if f.Permanent() {
				trial, cfg.Planner = node, tripPlanner{at: f.AtHours}
				break
			}
		}
	}
	value := fmt.Sprintf("trip at %v h", cfg.Planner.(tripPlanner).at)

	_, err = RunCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("run with a panicking trial succeeded")
	}
	for _, want := range []string{
		"section " + cfg.Section().Name + " chunk 2:",
		fmt.Sprintf("trial %d (seed %d)", trial, cfg.Seed),
		value,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	got := func() (r any) {
		defer func() { r = recover() }()
		ReplayNode(cfg, trial)
		return nil
	}()
	if got != value {
		t.Errorf("ReplayNode(%d) panicked with %v, want %q", trial, got, value)
	}

	rep, err := NewRunReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Kernel()(rep.Section.Span(2)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("trial %d (seed %d) panicked: %s", trial, cfg.Seed, value)) {
		t.Errorf("replaying chunk 2 = %v, want the trial's panic", err)
	}
	// The failure is confined to its chunk: a new kernel goes on replaying.
	if _, err := rep.Kernel()(rep.Section.Span(1)); err != nil {
		t.Errorf("replaying chunk 1 after the failure: %v", err)
	}
}

// TestSkipBearingChunksRecomputed pins that a logged chunk which skipped
// panicking trials (as runs that skipped instead of failing wrote it) is
// recomputed, never folded: the result equals a clean run.
func TestSkipBearingChunksRecomputed(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		cfg := smallCfg()
		cfg.Nodes = 3 * chunkSize
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := harness.NewStore(nil)
		var p runPayload
		p.DUEs, p.SkippedTrials = 1000, 1
		if err := store.Section(cfg.Section()).Put(1, &p); err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		var recomputed atomic.Int64
		cfg.trialHook = func(node int) {
			if node >= chunkSize && node < 2*chunkSize {
				recomputed.Add(1)
			}
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := recomputed.Load(); n != chunkSize {
			t.Errorf("recomputed %d of the chunk's %d trials", n, chunkSize)
		}
		if !sameResult(got, want) {
			t.Errorf("result differs from a clean run:\n%+v\n%+v", got, want)
		}
	})
	t.Run("coverage", func(t *testing.T) {
		cfg := covCfg(t)
		want, err := CoverageStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := harness.NewStore(nil)
		raw := json.RawMessage(`{"nodes":2048,"faulty":5000,"skipped":1,"curves":[{"repairable":5000},{"repairable":5000}]}`)
		if err := store.Section(cfg.Section()).Put(0, raw); err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		var recomputed atomic.Int64
		cfg.trialHook = func(node int) {
			if node < covChunkSize {
				recomputed.Add(1)
			}
		}
		got, err := CoverageStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := recomputed.Load(); n != covChunkSize {
			t.Errorf("recomputed %d of the chunk's %d trials", n, covChunkSize)
		}
		if !sameCoverage(got, want) {
			t.Error("study differs from a clean study")
		}
	})
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
	store, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Store = store
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
	store2, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Store = store2
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
	cfg.Planners = []repair.Planner{must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{}))}
	return cfg
}

// sameCoverage compares two coverage results exactly, including every curve's
// counters and capacity samples.
func sameCoverage(a, b *CoverageResult) bool {
	if a.FaultyNodes != b.FaultyNodes || a.TotalNodes != b.TotalNodes ||
		a.FaultyFraction != b.FaultyFraction || len(a.Curves) != len(b.Curves) {
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
	store, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Store = store
	interrupted.trialHook = func(node int) {
		if node >= covChunkSize {
			cancel()
		}
	}
	if _, err := CoverageStudyCtx(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted study: got %v, want context.Canceled", err)
	}

	store2, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Store = store2
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
	const bad = covChunkSize + 100
	cfg := covCfg(t)
	cfg.trialHook = func(node int) {
		if node == bad {
			panic("injected coverage fault")
		}
	}
	_, err := CoverageStudy(cfg)
	if err == nil {
		t.Fatal("study with a panicking trial succeeded")
	}
	for _, want := range []string{
		"section " + cfg.Section().Name + " chunk 1:",
		fmt.Sprintf("trial %d (seed %d) panicked: injected coverage fault", bad, cfg.Seed),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
