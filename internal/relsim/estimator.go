package relsim

import (
	"fmt"
	"math"
	"strings"

	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

// Estimator names accepted by StatsConfig.Estimator.
const (
	// EstimatorNaive draws each node from the physical fault-arrival
	// process with weight 1 — the bit-identical refactor of the original
	// hardwired accumulation path.
	EstimatorNaive = "naive"
	// EstimatorImportance oversamples the fault-arrival process (boosted
	// Poisson arrival counts on every node) and reweights each trial by
	// the likelihood ratio of the physical process against the proposal.
	EstimatorImportance = "importance"
	// EstimatorStratified allocates trials round-robin across the
	// (mode, persistence) first-arrival strata of the fault model and
	// reweights by the stratum probability; the "no faults" stratum
	// contributes exactly zero and is never simulated.
	EstimatorStratified = "stratified"
)

// DefaultBoost is the arrival-count boost used by the importance estimator
// when StatsConfig.Boost is zero. The sampler bounds the effective boost
// per node so likelihood-ratio weights stay within e² of unity (see
// fault.SampleNodeBiased), which keeps this default safe even on models
// with strongly accelerated nodes.
const DefaultBoost = 8.0

// DefaultMinTrials is the minimum trial count before the sequential
// stopping rule may fire when StatsConfig.MinTrials is zero: two full
// chunks, enough for the variance estimate to stabilise.
const DefaultMinTrials = 2 * chunkSize

// StatsConfig selects the estimator driving a run's trial pipeline and,
// optionally, a Chow–Robbins sequential stopping rule. A nil (or zero)
// StatsConfig reproduces the original pipeline byte for byte and is
// excluded from fingerprints, so every pre-existing configuration keeps
// its fingerprint, checkpoints, and journals. It is also a reliability
// scenario's "statistics" block, under the JSON names below.
type StatsConfig struct {
	// Estimator is one of EstimatorNaive, EstimatorImportance, or
	// EstimatorStratified ("" selects naive).
	Estimator string `json:"estimator"`
	// Boost is the importance estimator's arrival-count multiplier
	// (0 selects DefaultBoost; ignored by the other estimators).
	Boost float64 `json:"boost,omitempty"`
	// TargetCI, when positive, enables sequential stopping: the run stops
	// at the first chunk boundary where the 95% CI half-widths of both the
	// per-system DUE and SDC expectations fall to TargetCI or below.
	TargetCI float64 `json:"target_ci,omitempty"`
	// MinTrials is the minimum number of trials before the stopping rule
	// may fire (0 selects DefaultMinTrials). It guards against the
	// stopping rule firing off an early variance estimate of zero.
	MinTrials int `json:"min_trials,omitempty"`
}

// key is the statistics block's part of a configuration fingerprint: its
// %+v form with the retired MaxTrials cap, which no configuration set,
// rendered as the 0 it always read. Estimator configurations thereby keep
// the fingerprints their logs and store entries were written under.
func (s StatsConfig) key() string {
	return strings.TrimSuffix(fmt.Sprintf("%+v", s), "}") + " MaxTrials:0}"
}

// Summary renders the configuration for listings: "naive" for nil,
// otherwise the estimator name with its non-default knobs.
func (s *StatsConfig) Summary() string {
	if s == nil {
		return EstimatorNaive
	}
	var opts []string
	if s.Boost != 0 {
		opts = append(opts, fmt.Sprintf("boost=%g", s.Boost))
	}
	if s.TargetCI != 0 {
		opts = append(opts, fmt.Sprintf("target_ci=%g", s.TargetCI))
	}
	if s.MinTrials != 0 {
		opts = append(opts, fmt.Sprintf("min_trials=%d", s.MinTrials))
	}
	if len(opts) == 0 {
		return s.estimatorName()
	}
	return s.estimatorName() + "(" + strings.Join(opts, " ") + ")"
}

// active reports whether s selects anything beyond the legacy pipeline.
func (s *StatsConfig) active() bool {
	return s != nil && *s != StatsConfig{}
}

// estimatorName resolves the estimator name ("" defaults to naive).
func (s *StatsConfig) estimatorName() string {
	if s == nil || s.Estimator == "" {
		return EstimatorNaive
	}
	return s.Estimator
}

// boost resolves the importance-sampling boost.
func (s *StatsConfig) boost() float64 {
	if s == nil || s.Boost == 0 {
		return DefaultBoost
	}
	return s.Boost
}

// minTrials resolves the sequential-stopping warm-up floor.
func (s *StatsConfig) minTrials() int {
	if s == nil || s.MinTrials == 0 {
		return DefaultMinTrials
	}
	return s.MinTrials
}

// validate reports the first statistics-configuration error, if any.
func (s *StatsConfig) validate() error {
	if !s.active() {
		return nil
	}
	switch s.estimatorName() {
	case EstimatorNaive, EstimatorImportance, EstimatorStratified:
	default:
		return fmt.Errorf("relsim: unknown estimator %q (want %s, %s, or %s)",
			s.Estimator, EstimatorNaive, EstimatorImportance, EstimatorStratified)
	}
	if s.Boost < 0 {
		return fmt.Errorf("relsim: estimator boost must be non-negative, got %v", s.Boost)
	}
	if s.Boost > 0 && s.Boost < 1 {
		return fmt.Errorf("relsim: estimator boost %v would undersample faults; boosts below 1 are not supported", s.Boost)
	}
	if s.TargetCI < 0 {
		return fmt.Errorf("relsim: TargetCI must be non-negative, got %v", s.TargetCI)
	}
	if s.MinTrials < 0 {
		return fmt.Errorf("relsim: MinTrials must be non-negative, got %d", s.MinTrials)
	}
	return nil
}

// sampler draws one node's fault history through the configured estimator
// and reports the importance weight that makes the weighted trial an
// unbiased estimate under the physical process. Naive sampling (no boost,
// no strata) draws the physical process with weight 1; importance sampling
// boosts the fault-arrival counts and reweights by the Poisson likelihood
// ratio; stratified sampling allocates trials round-robin over the nonzero
// first-arrival strata, whose raw weight already includes the stratum
// probability and the ≥1-fault conditioning, so the only factor added here
// is the rotation count. Every draw is a deterministic function of (rng
// stream, node), so replay, checkpoint resume and the scheduling
// differential all reproduce identical bytes.
type sampler struct {
	model  *fault.Model
	boost  float64 // importance sampling's arrival-count boost, or 0
	strata []int   // stratified sampling's rotation, or nil
}

func (e *sampler) sampleNode(rng *stats.RNG, sc *fault.SampleScratch, node int) (fault.NodeFaults, float64) {
	switch {
	case e.strata != nil:
		nf, w := e.model.SampleNodeStratified(rng, sc, e.strata[node%len(e.strata)])
		return nf, w * float64(len(e.strata))
	case e.boost > 0:
		nf, logLR := e.model.SampleNodeBiased(rng, sc, e.boost)
		return nf, math.Exp(logLR)
	default:
		return e.model.SampleNodeScratch(rng, sc), 1
	}
}

// newSampler builds the configured estimator's sampler; an inactive block
// selects naive sampling, whose trials are the original pipeline's.
func (s *StatsConfig) newSampler(model *fault.Model) (sampler, error) {
	e := sampler{model: model}
	switch s.estimatorName() {
	case EstimatorNaive:
	case EstimatorImportance:
		e.boost = s.boost()
	case EstimatorStratified:
		for st := 0; st < model.NumStrata(); st++ {
			if model.StratumProb(st) > 0 {
				e.strata = append(e.strata, st)
			}
		}
		if len(e.strata) == 0 {
			return e, fmt.Errorf("relsim: stratified estimator: no fault class has positive rate")
		}
	default:
		return e, fmt.Errorf("relsim: unknown estimator %q", s.Estimator)
	}
	return e, nil
}

// estTally is the per-chunk estimator state: Welford accumulators over the
// weighted per-trial DUE and SDC contributions (what the stopping rule
// watches) plus the weight statistics behind the effective sample size.
// It is part of the chunk checkpoint payload, so it must round-trip
// through JSON bit for bit (stats.MeanVar and stats.WeightStats do).
type estTally struct {
	DUE stats.MeanVar     `json:"due"`
	SDC stats.MeanVar     `json:"sdc"`
	W   stats.WeightStats `json:"w"`
}

// observe records one weighted trial.
func (t *estTally) observe(w, due, sdc float64) {
	t.DUE.Add(w * due)
	t.SDC.Add(w * sdc)
	t.W.Add(w)
}

// merge folds o into t (chunk-index order gives deterministic bytes).
func (t *estTally) merge(o *estTally) {
	t.DUE.Merge(&o.DUE)
	t.SDC.Merge(&o.SDC)
	t.W.Merge(&o.W)
}

// ciMet reports whether m's 95% half-width, scaled to a per-system
// expectation, has reached the target on actual evidence. A zero half-width
// from zero observed events is no information: the per-trial contributions
// are non-negative, so Mean == 0 && M2 == 0 means no event has been seen
// yet, and letting that degenerate [0, 0] interval satisfy the rule would
// stop every rare-event run spuriously at the warm-up floor.
func ciMet(m *stats.MeanVar, scale, target float64) bool {
	if m.Mean == 0 && m.M2 == 0 {
		return false
	}
	return scale*m.HalfWidth95() <= target
}

// runPayload is the chunk checkpoint payload of Run. Result is embedded,
// so with a nil Est the JSON encoding is byte-identical to the bare Result
// the pre-estimator checkpoints stored — old checkpoints decode into new
// runs and naive runs write old-format bytes.
type runPayload struct {
	Result
	Est *estTally `json:"est,omitempty"`
}

// EstimatorReport summarises an estimator-driven run: it rides on Result
// so manifests, benches, and the CLI can show what the estimator bought.
type EstimatorReport struct {
	// Name is the estimator that produced the run.
	Name string `json:"name"`
	// Trials is the number of trials actually simulated; BudgetTrials is
	// what the configuration would have run without sequential stopping.
	Trials       int64 `json:"trials"`
	BudgetTrials int64 `json:"budget_trials"`
	// DUEHalfWidth and SDCHalfWidth are the final per-system 95% CI
	// half-widths of the two stopping-rule targets.
	DUEHalfWidth float64 `json:"due_half_width"`
	SDCHalfWidth float64 `json:"sdc_half_width"`
	// ESS is the Kish effective sample size of the importance weights.
	ESS float64 `json:"ess"`
	// Stopped reports whether the sequential stopping rule fired (as
	// opposed to the run exhausting its trial budget).
	Stopped bool `json:"stopped"`
}
