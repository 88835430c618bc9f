package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"relaxfault/internal/harness"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
)

// BenchSchema versions the BENCH_coverage.json artifact. v4 added the
// estimator block: a matched-CI comparison of the naive and importance
// sampling estimators on the rare-due preset's fault model. v3 replaced the
// single sequential-vs-parallel pair with a worker-count sweep (legs), so
// the artifact shows the scaling curve — per-leg speedup, allocation rate,
// and scheduler attribution — rather than one point on it. v2 added the
// provenance fields (start, go_version, version) and the attribution block.
const BenchSchema = "relaxfault-bench/v4"

// BenchLeg is one point of the worker sweep: the same coverage study run at
// a fixed worker count, timed and checked bitwise against the 1-worker leg.
type BenchLeg struct {
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	NsPerTrial float64 `json:"ns_per_trial"`
	// Speedup is the 1-worker leg's seconds divided by this leg's (1.0 on
	// the 1-worker leg itself).
	Speedup float64 `json:"speedup"`
	// Allocation pressure of this leg (per trial, across all workers).
	AllocsPerTrial float64 `json:"allocs_per_trial"`
	BytesPerTrial  float64 `json:"bytes_per_trial"`
	// Identical is true when this leg's result struct marshals to the same
	// JSON as the 1-worker leg's — the engine's determinism contract.
	Identical bool `json:"identical"`
	// Attribution breaks the leg's worker-seconds down into busy / claim /
	// fsync / reduce-wait / idle percentages (parallel legs only; the
	// 1-worker baseline runs without a recorder so it is unperturbed).
	Attribution *runtrace.Totals `json:"attribution,omitempty"`
}

// BenchResult is the schema of the BENCH_coverage.json artifact: a quick
// coverage study swept over worker counts on the same seed, with the
// bitwise-identity check the engine guarantees applied to every leg.
type BenchResult struct {
	Schema string `json:"schema"` // BenchSchema
	Name   string `json:"name"`
	// Provenance: when the measurement started, the toolchain, and the VCS
	// revision of the binary.
	Start     string `json:"start"`
	GoVersion string `json:"go_version"`
	Version   string `json:"version"`
	// Host parallelism: speedup is bounded by NumCPU, so a 1-core
	// container honestly reports ~1x while a 4-core CI runner shows the
	// multicore scaling. Multicore (num_cpu >= 4) is the precondition the
	// CI speedup gate keys on: only a host that can actually run the
	// 4-worker leg on 4 cores is held to the scaling floor.
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"num_cpu"`
	Multicore  bool `json:"multicore"`
	// Workers is the sweep's cap (-parallel value, or all cores when 0).
	Workers int   `json:"workers"`
	Trials  int64 `json:"trials"`

	// Legs is the sweep, ascending by worker count, starting at 1.
	Legs []BenchLeg `json:"legs"`

	// Identical is true when every leg's result matched the 1-worker leg.
	Identical bool `json:"identical"`

	// Estimator is the rare-event estimator comparison (see BenchEstimator).
	Estimator *BenchEstimator `json:"estimator,omitempty"`
}

// BenchEstimator is the matched-CI comparison of the naive and importance
// sampling estimators on the rare-due preset's fault model (0.2x FIT, no
// dynamic acceleration — a node DUE is a ~1.4e-6-per-trial event). The
// importance leg runs the preset's budget; the naive leg runs 64x as many
// trials and still reports a wider CI, so the trials naive would need to
// match the importance half-width are extrapolated with the 1/sqrt(n)
// half-width law.
type BenchEstimator struct {
	Preset string `json:"preset"`
	// Naive leg: trial count, per-system DUE estimate, 95% half-width.
	NaiveTrials    int64   `json:"naive_trials"`
	NaiveDUE       float64 `json:"naive_due"`
	NaiveHalfWidth float64 `json:"naive_half_width"`
	// Importance leg at the preset's boost.
	Boost       float64 `json:"boost"`
	ISTrials    int64   `json:"is_trials"`
	ISDUE       float64 `json:"is_due"`
	ISHalfWidth float64 `json:"is_half_width"`
	ESS         float64 `json:"ess"`
	// NaiveRequiredTrials = naive_trials * (naive_half_width/is_half_width)^2:
	// the naive budget extrapolated to the importance leg's CI width.
	NaiveRequiredTrials int64 `json:"naive_required_trials"`
	// Reduction = naive_required_trials / is_trials (the >= 10x claim).
	Reduction float64 `json:"reduction"`
	// Agree is true when the two DUE estimates lie within each other's
	// combined 95% half-widths.
	Agree bool `json:"agree"`
}

// benchCoverageConfig is the quick coverage study the bench experiment
// times: the "bench" preset's single study, lowered to an engine config so
// the same work can be timed at different worker counts.
func benchCoverageConfig(s Scale) (relsim.CoverageConfig, error) {
	sc, err := s.PresetScenario("bench")
	if err != nil {
		return relsim.CoverageConfig{}, err
	}
	low, err := sc.Lower()
	if err != nil {
		return relsim.CoverageConfig{}, err
	}
	cfg := low.Coverage[0]
	// Four times the scale's coverage budget: the worker sweep needs enough
	// chunks (a dozen or so at QuickScale, vs ~3 on the stock budget) that
	// the 4-worker leg has parallelism to exploit and the speedup floor is
	// a property of the engine, not of a study too short to shard.
	cfg.FaultyNodes *= 4
	return cfg, nil
}

// benchWorkerSweep is the deduplicated ascending worker counts the legs
// measure: 1, 2, 4, and the requested cap.
func benchWorkerSweep(cap int) []int {
	set := map[int]bool{1: true, 2: true, 4: true}
	if cap > 0 {
		set[cap] = true
	}
	sweep := make([]int, 0, len(set))
	for w := range set {
		sweep = append(sweep, w)
	}
	sort.Ints(sweep)
	return sweep
}

// Bench sweeps the quick coverage study over worker counts (1, 2, 4, and
// s.Workers or all cores when 0), verifies every leg produces a result
// identical to the sequential one, and reports per-leg timing/alloc figures.
func Bench(s Scale) (BenchResult, error) { return BenchCtx(context.Background(), s) }

// BenchCtx is Bench with cancellation.
func BenchCtx(ctx context.Context, s Scale) (BenchResult, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := BenchResult{
		Schema:     BenchSchema,
		Name:       "coverage-quick",
		Start:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Version:    harness.BuildVersion(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Multicore:  runtime.NumCPU() >= 4,
		Workers:    workers,
	}

	base, err := benchCoverageConfig(s)
	if err != nil {
		return out, err
	}
	run := func(w int, tr *runtrace.Recorder) (*relsim.CoverageResult, float64, error) {
		cfg := base
		cfg.Workers = w
		cfg.Mon = s.Mon
		cfg.Trace = tr
		start := time.Now()
		res, err := relsim.CoverageStudyCtx(ctx, cfg)
		return res, time.Since(start).Seconds(), err
	}

	var baseJSON []byte
	var seqSec float64
	out.Identical = true
	for _, w := range benchWorkerSweep(workers) {
		// A fresh recorder on each parallel leg: the attribution block
		// explains where that leg's wall time went without perturbing the
		// sequential baseline.
		var tr *runtrace.Recorder
		if w > 1 {
			tr = runtrace.New()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, sec, err := run(w, tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			return out, err
		}
		leg := BenchLeg{Workers: w, Seconds: sec}
		if tr != nil {
			rep := runtrace.Analyze(tr)
			leg.Attribution = &rep.Totals
		}
		legJSON, err := json.Marshal(res)
		if err != nil {
			return out, err
		}
		if baseJSON == nil {
			baseJSON, seqSec = legJSON, sec
			out.Trials = int64(res.TotalNodes)
		}
		leg.Identical = bytes.Equal(legJSON, baseJSON)
		out.Identical = out.Identical && leg.Identical
		if out.Trials > 0 {
			leg.NsPerTrial = sec * 1e9 / float64(out.Trials)
			leg.AllocsPerTrial = float64(after.Mallocs-before.Mallocs) / float64(out.Trials)
			leg.BytesPerTrial = float64(after.TotalAlloc-before.TotalAlloc) / float64(out.Trials)
		}
		if sec > 0 {
			leg.Speedup = seqSec / sec
		}
		out.Legs = append(out.Legs, leg)
	}
	if !out.Identical {
		return out, fmt.Errorf("bench: worker sweep produced results differing from the sequential leg")
	}
	est, err := benchEstimatorCtx(ctx, s)
	if err != nil {
		return out, err
	}
	out.Estimator = est
	return out, nil
}

// benchEstimatorCtx measures the rare-event payoff of the estimator layer:
// the importance leg runs the rare-due preset at full budget (no stopping,
// so the achieved half-width is the comparison target) and the naive leg
// runs 64x the trials on the same fault model.
func benchEstimatorCtx(ctx context.Context, s Scale) (*BenchEstimator, error) {
	sc, err := s.PresetScenario("rare-due")
	if err != nil {
		return nil, err
	}
	low, err := sc.Lower()
	if err != nil {
		return nil, err
	}
	base := low.Reliability[0]
	base.Exec = s.Exec()
	// The sweep legs already own the checkpoint sections; the estimator
	// comparison is a measurement, not a resumable campaign.
	base.Checkpoint = nil

	out := &BenchEstimator{Preset: "rare-due", Boost: base.Stats.Boost}

	is := base
	is.Stats = &relsim.StatsConfig{Estimator: relsim.EstimatorImportance, Boost: base.Stats.Boost}
	isRes, err := relsim.RunCtx(ctx, is)
	if err != nil {
		return nil, err
	}
	out.ISTrials = isRes.Estimator.Trials
	out.ISDUE = isRes.DUEs
	out.ISHalfWidth = isRes.Estimator.DUEHalfWidth
	out.ESS = isRes.Estimator.ESS

	naive := base
	naive.Replicas *= 64
	naive.Stats = &relsim.StatsConfig{Estimator: relsim.EstimatorNaive}
	nvRes, err := relsim.RunCtx(ctx, naive)
	if err != nil {
		return nil, err
	}
	out.NaiveTrials = nvRes.Estimator.Trials
	out.NaiveDUE = nvRes.DUEs
	out.NaiveHalfWidth = nvRes.Estimator.DUEHalfWidth

	if out.ISHalfWidth > 0 {
		ratio := out.NaiveHalfWidth / out.ISHalfWidth
		out.NaiveRequiredTrials = int64(float64(out.NaiveTrials) * ratio * ratio)
		out.Reduction = float64(out.NaiveRequiredTrials) / float64(out.ISTrials)
	}
	diff := out.ISDUE - out.NaiveDUE
	if diff < 0 {
		diff = -diff
	}
	out.Agree = diff <= out.ISHalfWidth+out.NaiveHalfWidth
	return out, nil
}

// String prints the sweep as a small report.
func (r BenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Benchmark: quick coverage study, worker sweep up to %d\n", r.Workers)
	fmt.Fprintf(&b, "%-26s %d (GOMAXPROCS %d, multicore %v)\n", "cores", r.NumCPU, r.GOMAXPROCS, r.Multicore)
	fmt.Fprintf(&b, "%-26s %d\n", "trials", r.Trials)
	for _, l := range r.Legs {
		fmt.Fprintf(&b, "%-26s %.2fs (%.0f ns/trial)  speedup %.2fx  %.1f allocs/trial\n",
			fmt.Sprintf("workers %d", l.Workers), l.Seconds, l.NsPerTrial, l.Speedup, l.AllocsPerTrial)
		if a := l.Attribution; a != nil {
			fmt.Fprintf(&b, "%-26s busy %.1f%% claim %.1f%% fsync %.1f%% reduce %.1f%% idle %.1f%%\n",
				"", a.BusyPct, a.ClaimPct, a.CheckpointPct, a.ReduceWaitPct, a.IdlePct)
		}
	}
	fmt.Fprintf(&b, "%-26s %v\n", "results bitwise identical", r.Identical)
	if e := r.Estimator; e != nil {
		fmt.Fprintf(&b, "Estimator payoff on %s (rare DUEs, matched CI width):\n", e.Preset)
		fmt.Fprintf(&b, "%-26s DUE %.4f +- %.4f in %d trials\n",
			"naive", e.NaiveDUE, e.NaiveHalfWidth, e.NaiveTrials)
		fmt.Fprintf(&b, "%-26s DUE %.4f +- %.4f in %d trials (ESS %.0f)\n",
			fmt.Sprintf("importance (boost %g)", e.Boost), e.ISDUE, e.ISHalfWidth, e.ISTrials, e.ESS)
		fmt.Fprintf(&b, "%-26s %d trials -> %.0fx fewer with importance sampling (agree: %v)\n",
			"naive needs", e.NaiveRequiredTrials, e.Reduction, e.Agree)
	}
	return b.String()
}
