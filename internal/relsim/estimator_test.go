package relsim

// Tests for the estimator layer: configuration validation, the naive
// estimator's bit-identity with the legacy pipeline, scheduling invariance
// of importance sampling with sequential stopping, and checkpoint resume
// of stopped runs.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/obs"
)

func TestStatsConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		s    StatsConfig
		want string
	}{
		{"unknown estimator", StatsConfig{Estimator: "magic"}, "unknown estimator"},
		{"negative boost", StatsConfig{Estimator: EstimatorImportance, Boost: -2}, "non-negative"},
		{"undersampling boost", StatsConfig{Estimator: EstimatorImportance, Boost: 0.5}, "below 1"},
		{"negative target", StatsConfig{Estimator: EstimatorNaive, TargetCI: -1}, "TargetCI"},
		{"negative min trials", StatsConfig{Estimator: EstimatorNaive, MinTrials: -1}, "MinTrials"},
	}
	for _, c := range cases {
		cfg := smallCfg()
		s := c.s
		cfg.Stats = &s
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestNaiveEstimatorBitIdentical: routing trials through the naive
// estimator (weight 1, same RNG stream) must reproduce the legacy
// pipeline's statistics bit for bit — the refactor's core guarantee.
func TestNaiveEstimatorBitIdentical(t *testing.T) {
	cfg := smallCfg()
	legacy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stats = &StatsConfig{Estimator: EstimatorNaive}
	naive, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Estimator == nil || naive.Estimator.Name != EstimatorNaive {
		t.Fatalf("estimator report %+v, want naive", naive.Estimator)
	}
	if naive.Estimator.Stopped {
		t.Error("no stopping rule configured, but the report claims a stop")
	}
	// Same trial count (Replicas=1, so both scalings are exact identity).
	rep := naive.Estimator
	naive.Estimator = nil
	if !sameResult(naive, legacy) {
		t.Errorf("naive estimator diverged from the legacy pipeline:\n%+v\n%+v", naive, legacy)
	}
	if rep.Trials != int64(cfg.Nodes) || rep.BudgetTrials != int64(cfg.Nodes) {
		t.Errorf("trials %d/%d, want %d/%d", rep.Trials, rep.BudgetTrials, cfg.Nodes, cfg.Nodes)
	}
}

// TestStatsFingerprint: an inactive statistics block keeps the legacy
// fingerprint (checkpoint/journal compatibility for every existing
// configuration); active blocks fork it per estimator.
func TestStatsFingerprint(t *testing.T) {
	cfg := smallCfg()
	base := cfg.Fingerprint()
	cfg.Stats = &StatsConfig{}
	if fp := cfg.Fingerprint(); fp != base {
		t.Errorf("zero StatsConfig changed the fingerprint: %s vs %s", fp, base)
	}
	cfg.Stats = &StatsConfig{Estimator: EstimatorNaive}
	naive := cfg.Fingerprint()
	cfg.Stats = &StatsConfig{Estimator: EstimatorImportance}
	imp := cfg.Fingerprint()
	if naive == base || imp == base || naive == imp {
		t.Errorf("active statistics blocks must fork the fingerprint: base %s naive %s importance %s", base, naive, imp)
	}
	// Estimator fingerprints name logged sections and store entries, so
	// they are pinned: rare-due's statistics block on the default run
	// configuration.
	run := DefaultConfig()
	run.Stats = &StatsConfig{Estimator: EstimatorImportance, Boost: 16, TargetCI: 0.02}
	if got := run.Fingerprint(); got != "8b55311a095c444c" {
		t.Errorf("estimator fingerprint %s, pinned 8b55311a095c444c", got)
	}
}

// stoppingCfg returns an importance-sampling configuration whose stopping
// target is calibrated from a full-budget run so the sequential rule fires
// partway through the campaign.
func stoppingCfg(t *testing.T) Config {
	t.Helper()
	cfg := smallCfg()
	cfg.Nodes = 40 * 1000
	cfg.Stats = &StatsConfig{Estimator: EstimatorImportance, Boost: 4}
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Estimator.DUEHalfWidth <= 0 || full.Estimator.SDCHalfWidth <= 0 {
		t.Fatalf("calibration run has degenerate CIs: %+v", full.Estimator)
	}
	target := full.Estimator.DUEHalfWidth
	if s := full.Estimator.SDCHalfWidth; s > target {
		target = s
	}
	// Half-widths shrink like 1/sqrt(n); 1.4x the full-budget width is
	// reachable at roughly half the budget.
	cfg.Stats = &StatsConfig{Estimator: EstimatorImportance, Boost: 4, TargetCI: 1.4 * target}
	return cfg
}

// TestSequentialStoppingInvariance: a stopped run must produce identical
// results — including the stop point — for every worker count, because the
// cutoff is discovered in the index-ordered fold, not in scheduling order.
// The result metrics must advance by the same amounts too: they are added
// in the fold, so the chunks workers compute past the cutoff never reach
// them.
func TestSequentialStoppingInvariance(t *testing.T) {
	cfg := stoppingCfg(t)
	resultMetrics := []string{"relsim.due", "relsim.sdc", "relsim.replacements", "relsim.faulty_nodes"}
	advance := func(run func()) []float64 {
		before := obs.Default().Snapshot()
		run()
		after := obs.Default().Snapshot()
		d := make([]float64, len(resultMetrics))
		for k, name := range resultMetrics {
			d[k] = *after[name].Value - *before[name].Value
		}
		return d
	}
	var want Result
	var wantAdvance []float64
	for i, exec := range []harness.Exec{
		{Workers: 1},
		{Workers: 2},
		{Workers: 4},
		{Workers: 7},
	} {
		run := cfg
		run.Exec = exec
		var got Result
		var err error
		adv := advance(func() { got, err = Run(run) })
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimator == nil || !got.Estimator.Stopped {
			t.Fatalf("exec %+v: stopping rule never fired: %+v", exec, got.Estimator)
		}
		if got.Estimator.Trials >= got.Estimator.BudgetTrials {
			t.Fatalf("exec %+v: stopped run used the full budget (%d/%d)",
				exec, got.Estimator.Trials, got.Estimator.BudgetTrials)
		}
		if i == 0 {
			want, wantAdvance = got, adv
			for k, name := range resultMetrics {
				if adv[k] <= 0 {
					t.Fatalf("%s did not advance; the run exercises nothing", name)
				}
			}
			continue
		}
		if !sameResult(got, want) {
			t.Errorf("exec %+v diverged:\n%+v\n%+v", exec, got, want)
		}
		for k, name := range resultMetrics {
			if math.Abs(adv[k]-wantAdvance[k]) > 1e-9*wantAdvance[k] {
				t.Errorf("exec %+v: %s advanced by %v, want %v as at 1 worker", exec, name, adv[k], wantAdvance[k])
			}
		}
	}
}

// TestSequentialStoppingResume: an interrupted stopped run resumes from its
// log to the exact result of an uninterrupted one, and the log of a fully
// stopped run resumes without simulating a single extra trial.
func TestSequentialStoppingResume(t *testing.T) {
	cfg := stoppingCfg(t)
	cfg.Workers = 2
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp.jsonl")
	store, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := cfg
	interrupted.Store = store
	interrupted.trialHook = func(node int) {
		if node >= 2*chunkSize {
			cancel()
		}
	}
	if _, err := RunCtx(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}

	store2, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Store = store2
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Errorf("resumed stopped run differs from uninterrupted run:\n%+v\n%+v", want, got)
	}

	// Second resume, from the finished run's log: the stopping prefix is
	// complete, so zero trials run.
	store3, err := harness.OpenStore(path, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	again := cfg
	again.Store = store3
	var replayed atomic.Int64
	again.trialHook = func(int) { replayed.Add(1) }
	got2, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got2, want) {
		t.Errorf("log-only resume differs:\n%+v\n%+v", want, got2)
	}
	if n := replayed.Load(); n != 0 {
		t.Errorf("log-only resume simulated %d trials, want 0", n)
	}
}
