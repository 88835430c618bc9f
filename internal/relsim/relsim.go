// Package relsim is the Monte Carlo reliability simulator behind the
// paper's evaluation (Sections 4.1 and 5.1): it samples per-node DRAM fault
// histories from the refined fault model, drives the repair and
// DIMM-replacement policies, and reports the fleet-level metrics the paper
// plots — repair coverage versus LLC capacity, expected DUEs and SDCs, and
// expected DIMM replacements.
//
// Both simulation entry points (Run and CoverageStudy) are set-ups around one
// harness.Chunked driver: work is split into fixed node-index chunks, node i
// always draws from the root RNG's fork(i) stream, and final statistics are
// reduced in chunk-index order. Results are therefore exactly independent of
// the worker count and of scheduling, which is what lets the harness
// checkpoint completed chunks and resume a killed run with bitwise-identical
// output. This package keeps only what is specific to each study: the trial
// kernels, their chunk payloads and folds, and the final per-system scaling.
// A panicking trial fails its run: each chunk kernel recovers the panic into
// an error naming the trial and seed, and ReplayNode reproduces the trial.
package relsim

import (
	"context"
	"encoding/json"
	"fmt"

	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// ReplacementPolicy selects when a faulty DIMM is replaced.
type ReplacementPolicy int

const (
	// ReplaceNever keeps DIMMs in service regardless of errors (used for
	// coverage studies).
	ReplaceNever ReplacementPolicy = iota
	// ReplaceAfterDUE (ReplA) replaces a DIMM after it produces a
	// non-transient DUE.
	ReplaceAfterDUE
	// ReplaceAfterThreshold (ReplB) replaces a DIMM once a permanent
	// fault produces corrected errors above a rate threshold — the
	// aggressive policy production systems use.
	ReplaceAfterThreshold
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceNever:
		return "none"
	case ReplaceAfterDUE:
		return "ReplA(after-DUE)"
	case ReplaceAfterThreshold:
		return "ReplB(after-CE-threshold)"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// The paper's chipkill-escape rates and ReplB threshold. They are fixed
// model constants, not configuration: every run and fingerprint uses them.
const (
	// sdcAliasProb is the probability a two-device overlap escapes the
	// chipkill detector and silently corrupts data instead of raising a
	// DUE. SDC counts are accumulated in expectation so the tiny rates
	// the paper reports resolve without enormous trial counts.
	sdcAliasProb float64 = 0.002
	// tripleSDCProb is the probability a three-device codeword overlap
	// defeats detection (three-symbol errors exceed the code's guarantee
	// but are still often flagged).
	tripleSDCProb float64 = 0.25
	// replBActivationsPerHour is the CE-rate threshold of ReplB (about one
	// activation burst a day): an unrepaired permanent fault whose
	// error-producing rate meets it triggers replacement. Hard-permanent
	// faults always trigger.
	replBActivationsPerHour float64 = 1.0 / 24
)

// Config describes one reliability experiment.
type Config struct {
	Model fault.Config
	// Nodes per system (paper: 16,384).
	Nodes int
	// Planner is the repair engine; nil disables repair.
	Planner repair.Planner
	// WayLimit caps repair lines per LLC set (1, 4, or 16 in the paper).
	WayLimit int
	Policy   ReplacementPolicy
	// Replicas repeats the whole-system simulation to tighten expectation
	// estimates; results are reported per system. It must be positive.
	Replicas int
	Seed     uint64
	// Stats selects the estimator driving the trial pipeline and the
	// optional sequential stopping rule. nil (or a zero value) keeps the
	// original naive pipeline, byte for byte, with an unchanged
	// fingerprint.
	Stats *StatsConfig
	// Exec attaches the worker pool, monitor, checkpoint store and trace
	// recorder; none of it enters the fingerprint.
	harness.Exec

	// trialHook, when set (tests only), runs at the start of every trial
	// with the global node index. It is the injection point for
	// cancellation-latency and fail-fast tests.
	trialHook func(node int)
}

// DefaultConfig returns the paper's system: 16,384 nodes, no repair,
// replace-after-DUE.
func DefaultConfig() Config {
	return Config{
		Model:    fault.DefaultConfig(),
		Nodes:    16384,
		Planner:  nil,
		WayLimit: 1,
		Policy:   ReplaceAfterDUE,
		Replicas: 1,
		Seed:     1,
	}
}

// Validate reports the first configuration error, if any. RunCtx, ReplayNode
// and NewRunReplayer apply it; the scenario layer calls it directly so bad
// specs fail before any simulation work starts.
func (cfg *Config) Validate() error {
	if cfg.Nodes <= 0 {
		return fmt.Errorf("relsim: Nodes must be positive")
	}
	if cfg.Replicas <= 0 {
		return fmt.Errorf("relsim: Replicas must be positive")
	}
	if err := cfg.Stats.validate(); err != nil {
		return err
	}
	if cfg.Planner != nil && cfg.WayLimit < 0 {
		return fmt.Errorf("relsim: WayLimit must be non-negative")
	}
	if err := cfg.Model.Geometry.Validate(); err != nil {
		return fmt.Errorf("relsim: %w", err)
	}
	return nil
}

// Result aggregates per-system expectations (averaged over replicas).
type Result struct {
	// FaultyNodes counts nodes that saw at least one permanent fault.
	FaultyNodes float64
	// MultiDeviceFaultDIMMs counts DIMMs where two or more distinct
	// devices developed permanent faults during the horizon.
	MultiDeviceFaultDIMMs float64
	// DUEs and SDCs are expected event counts per system over the horizon.
	DUEs float64
	SDCs float64
	// Replacements is the expected number of DIMM replacements.
	Replacements float64
	// RepairedNodes counts faulty nodes whose permanent faults were all
	// repaired (and never needed replacement).
	RepairedNodes float64
	// RepairedDIMMs counts DIMMs with permanent faults fully masked by
	// repair — the modules saved from replacement ("transparently
	// repaired").
	RepairedDIMMs float64
	// FaultyDIMMs counts DIMMs that saw at least one permanent fault.
	FaultyDIMMs float64
	Replicas    int
	// SkippedTrials and Skips are always zero: a panicking trial fails its
	// run. They stay because reliability chunk payloads embed Result, so
	// logged payloads, their digests and the equivalence goldens carry
	// "SkippedTrials":0,"Skips":null. A logged chunk with SkippedTrials > 0
	// (written before trials failed fast) is missing trials and is
	// recomputed, never folded.
	SkippedTrials int
	Skips         []struct{}
	// Estimator summarises the estimator-driven run (trial counts, CI
	// half-widths, effective sample size); nil on the legacy pipeline.
	Estimator *EstimatorReport `json:"Estimator,omitempty"`
}

// addScaled accumulates o's statistics into r with importance weight w.
// Multiplying by w == 1 is exact in IEEE 754, so unweighted accumulation is
// plain addition.
func (r *Result) addScaled(o *Result, w float64) {
	r.FaultyNodes += o.FaultyNodes * w
	r.MultiDeviceFaultDIMMs += o.MultiDeviceFaultDIMMs * w
	r.DUEs += o.DUEs * w
	r.SDCs += o.SDCs * w
	r.Replacements += o.Replacements * w
	r.RepairedNodes += o.RepairedNodes * w
	r.RepairedDIMMs += o.RepairedDIMMs * w
	r.FaultyDIMMs += o.FaultyDIMMs * w
}

// scale multiplies every expectation of r by f.
func (r *Result) scale(f float64) {
	r.FaultyNodes *= f
	r.MultiDeviceFaultDIMMs *= f
	r.DUEs *= f
	r.SDCs *= f
	r.Replacements *= f
	r.RepairedNodes *= f
	r.RepairedDIMMs *= f
	r.FaultyDIMMs *= f
}

// chunkSize is the scheduling and checkpointing granularity of Run: workers
// claim whole chunks, cancellation is observed between chunks, and completed
// chunks are the unit of checkpoint persistence.
const chunkSize = 4096

// RunChunkSize is chunkSize for callers outside the package.
const RunChunkSize = chunkSize

// TotalTrials is the number of Monte Carlo trials RunCtx executes at most:
// Nodes × Replicas.
func (cfg *Config) TotalTrials() int { return cfg.Nodes * cfg.Replicas }

// Section is the run's checkpoint/journal section: "run-"+Fingerprint(),
// split into chunks of chunkSize over [0, TotalTrials). It is the one
// derivation of the section: the driver runs it, campaign planning predicts
// every chunk's span from it without running the engine, and the replayer
// reproduces those spans exactly.
func (cfg *Config) Section() harness.Section {
	fp := cfg.Fingerprint()
	return harness.Section{Name: "run-" + fp, Fingerprint: fp,
		Chunking: harness.Chunking{Size: chunkSize, Trials: cfg.TotalTrials()}}
}

// Fingerprint identifies the statistical content of a run configuration for
// checkpoint compatibility and journal replay. Anything that changes sampled
// histories or their interpretation must be included; Workers and Mon
// deliberately are not.
func (cfg *Config) Fingerprint() string {
	planner := "none"
	if cfg.Planner != nil {
		planner = cfg.Planner.Name()
	}
	args := []any{"relsim.Run", cfg.Model, cfg.Nodes, planner,
		cfg.WayLimit, cfg.Policy, replBActivationsPerHour,
		sdcAliasProb, tripleSDCProb, cfg.Replicas, cfg.Seed, chunkSize}
	// The statistics block changes which trials run and how they are
	// interpreted, so it is part of the statistical identity — but only
	// when active, so every pre-estimator configuration keeps its exact
	// fingerprint (and with it checkpoint and journal compatibility).
	if cfg.Stats.active() {
		args = append(args, "stats", cfg.Stats.key())
	}
	return harness.Fingerprint(args...)
}

// Run simulates cfg.Replicas systems and returns per-system averages.
func Run(cfg Config) (Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation: when ctx is cancelled the simulation
// stops at the next chunk boundary (at most ~chunkSize trials away per
// worker), with every computed chunk logged, and returns ctx's error.
//
// With sequential stopping the fold is where the stopping rule lives: the
// cumulative estimator tally advances in exact chunk-index order, so the
// cutoff — the first chunk whose prefix drives both CI half-widths to the
// target — is a deterministic function of the configuration, never of
// scheduling.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return Result{}, err
	}
	statsOn := cfg.Stats.active()
	targetCI := 0.0
	if statsOn {
		targetCI = cfg.Stats.TargetCI
	}
	minTrials := int64(cfg.Stats.minTrials())
	hwScale := float64(cfg.Nodes) // per-trial mean → per-system expectation
	var sum Result
	var cum estTally
	stopped := false
	run := harness.Chunked[*runPayload]{
		Exec: cfg.Exec, Section: cfg.Section(), Kernel: kernel,
		Decode: func(lo, hi int, raw json.RawMessage) (*runPayload, bool) {
			// Estimator runs need the tally: it is part of the stopping state.
			var p runPayload
			if json.Unmarshal(raw, &p) != nil || (statsOn && p.Est == nil) || p.SkippedTrials > 0 {
				return nil, false
			}
			rm.trialsResumed.Add(int64(hi - lo))
			return &p, true
		},
		Fold: func(_ int, p *runPayload) bool {
			sum.addScaled(&p.Result, 1)
			rm.faultyNodes.Add(p.FaultyNodes)
			rm.dues.Add(p.DUEs)
			rm.sdcs.Add(p.SDCs)
			rm.replacements.Add(p.Replacements)
			if p.Est != nil {
				cum.merge(p.Est)
				stopped = targetCI > 0 && cum.DUE.N >= minTrials &&
					ciMet(&cum.DUE, hwScale, targetCI) && ciMet(&cum.SDC, hwScale, targetCI)
			}
			return stopped
		},
	}
	if err := run.Run(ctx); err != nil {
		return Result{}, err
	}
	sum.Replicas = cfg.Replicas
	if !statsOn {
		sum.scale(1 / float64(cfg.Replicas))
		return sum, nil
	}
	n := cum.W.N
	if n == 0 {
		return Result{}, fmt.Errorf("relsim: estimator run completed zero trials")
	}
	// Weighted per-trial sums → per-system expectations: the estimator
	// makes each weighted trial an unbiased per-node estimate, so the
	// system expectation is Nodes × the weighted mean over however many
	// trials actually ran (the full budget or a sequential stop).
	sum.scale(float64(cfg.Nodes) / float64(n))
	sum.Estimator = &EstimatorReport{
		Name:         cfg.Stats.estimatorName(),
		Trials:       n,
		BudgetTrials: int64(cfg.TotalTrials()),
		DUEHalfWidth: hwScale * cum.DUE.HalfWidth95(),
		SDCHalfWidth: hwScale * cum.SDC.HalfWidth95(),
		ESS:          cum.W.ESS(),
		Stopped:      stopped,
	}
	rm.estTrialsSaved.Add(sum.Estimator.BudgetTrials - n)
	rm.estESS.Set(sum.Estimator.ESS)
	rm.estHalfWidth.Set(sum.Estimator.DUEHalfWidth)
	return sum, nil
}

// kernel builds the run's chunk kernel for harness.Chunked: a factory of
// per-worker chunk functions, each with its own trial simulator. RunCtx and
// the journal replayer execute chunks through it alike.
func (cfg *Config) kernel() (func() func(lo, hi int) (*runPayload, error), error) {
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	if _, err := newNodeSim(model, *cfg); err != nil {
		return nil, err
	}
	return func() func(lo, hi int) (*runPayload, error) {
		sim, _ := newNodeSim(model, *cfg) // succeeded above
		return sim.runChunk
	}, nil
}

// runChunk is the reliability trial kernel: trials [lo, hi) run in index
// order, each accumulated into the chunk payload. A panicking trial fails
// the chunk (see failTrial).
func (s *nodeSim) runChunk(lo, hi int) (res *runPayload, err error) {
	node := lo
	defer failTrial(&node, s.cfg.Seed, &err)
	res = &runPayload{}
	if s.cfg.Stats.active() {
		res.Est = &estTally{}
	}
	for ; node < hi; node++ {
		s.runTrial(node, res)
	}
	rm.trialsDone.Add(int64(hi - lo))
	return res, nil
}

// failTrial, deferred once per chunk kernel, turns a panic in trial *node
// into the chunk's error, naming the trial and the seed that reproduce it
// (see ReplayNode). Retrying is pointless: the trial's RNG substream is a
// pure function of (seed, node), so it would panic again.
func failTrial(node *int, seed uint64, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("relsim: trial %d (seed %d) panicked: %v", *node, seed, r)
	}
}

// runTrial simulates one node and adds it to res. The trial accumulates
// into the simulator's scratch Result first and is then added with its
// weight: that grouping fixes the float summation order the payload bytes
// depend on. The node's RNG stream is derived in place via
// Forker.Substream, bit-identical to root.Fork(node); the scratch and the
// substream RNG are reused, so a steady-state trial allocates nothing here.
func (s *nodeSim) runTrial(node int, res *runPayload) {
	s.trialRes = Result{}
	if s.cfg.trialHook != nil {
		s.cfg.trialHook(node)
	}
	s.fk.Substream(uint64(node), &s.trialRNG)
	w := s.sampleAndSimulate(&s.trialRNG, node, &s.trialRes)
	res.addScaled(&s.trialRes, w)
	if res.Est != nil {
		res.Est.observe(w, s.trialRes.DUEs, s.trialRes.SDCs)
	}
}

// sampleAndSimulate runs one trial through the configured estimator,
// returning the trial's importance weight.
func (s *nodeSim) sampleAndSimulate(rng *stats.RNG, node int, res *Result) float64 {
	nf, w := s.sampler.sampleNode(rng, &s.sampleSc, node)
	s.simulate(nf, res)
	return w
}

// ReplayNode re-executes the single trial `node` of the run described by
// cfg, with no recover: a trial whose panic failed a run (the run's error
// names its trial and seed) panics here too, under a debugger-friendly
// single goroutine.
// The returned Result holds just that node's contributions, unscaled.
func ReplayNode(cfg Config, node int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if node < 0 || node >= cfg.Nodes*cfg.Replicas {
		return Result{}, fmt.Errorf("relsim: node %d outside [0, %d)", node, cfg.Nodes*cfg.Replicas)
	}
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		return Result{}, err
	}
	sim, err := newNodeSim(model, cfg)
	if err != nil {
		return Result{}, err
	}
	var res Result
	sim.sampleAndSimulate(stats.NewRNG(cfg.Seed).Fork(uint64(node)), node, &res)
	return res, nil
}

// liveFault is a permanent fault currently in service (not repaired, DIMM
// not replaced).
type liveFault struct {
	f        *fault.Fault
	dimm     int
	repaired bool
}

// nodeSim holds per-worker scratch state. One simulator serves one engine
// worker; every buffer below is reused across trials so the per-trial
// allocation count stays flat no matter how many nodes a campaign samples.
type nodeSim struct {
	model   *fault.Model
	cfg     Config
	state   repair.NodeState // reused across trials (Reset per node)
	sampler sampler          // the configured estimator's draws
	fk      stats.Forker     // the root seed's per-trial substreams

	sampleSc fault.SampleScratch
	// trialRNG is the per-trial substream (seeded in place per trial) and
	// trialRes the per-trial accumulator (see runTrial); both live here so
	// steady-state trials allocate nothing.
	trialRNG stats.RNG
	trialRes Result
	// Per-trial working state, cleared at the start of each faulty trial
	// (fault-free trials never touch it): devSeen is a flat
	// [dimm*devPerDIMM+device] bit of which devices faulted, devCount the
	// distinct faulty devices per DIMM, replaced/unrepaired per-DIMM flags.
	devSeen    []bool
	devCount   []int
	replaced   []bool
	unrepaired []bool
	live       []liveFault
	hits       []*fault.Fault
}

func newNodeSim(model *fault.Model, cfg Config) (*nodeSim, error) {
	smp, err := cfg.Stats.newSampler(model)
	return &nodeSim{model: model, cfg: cfg, sampler: smp, fk: stats.NewRNG(cfg.Seed).Forker()}, err
}

// simulate runs one node's sampled fault history through the repair and
// replacement policies and accumulates its outcome into res.
func (s *nodeSim) simulate(nf fault.NodeFaults, res *Result) {
	if len(nf.Faults) == 0 {
		return
	}
	g := s.model.Config().Geometry
	nDIMMs := g.DIMMs()
	devPer := g.DevicesPerDIMM()

	// (Re)size and clear the per-trial scratch.
	if cap(s.devSeen) < nDIMMs*devPer {
		s.devSeen = make([]bool, nDIMMs*devPer)
		s.devCount = make([]int, nDIMMs)
		s.replaced = make([]bool, nDIMMs)
		s.unrepaired = make([]bool, nDIMMs)
	}
	s.devSeen = s.devSeen[:nDIMMs*devPer]
	clear(s.devSeen)
	clear(s.devCount)
	clear(s.replaced)
	clear(s.unrepaired)

	// Live permanent faults in arrival order (all DIMMs of the node).
	live := s.live[:0]
	planner := s.cfg.Planner
	var state repair.NodeState
	if planner != nil {
		if s.state == nil {
			s.state = planner.NewState()
		}
		s.state.Reset()
		state = s.state
	}
	anyPermanent := false
	nodeReplaced := false
	nodeUnrepaired := false

	// replaceDIMM removes a DIMM's live faults; repair state is rebuilt by
	// replaying the survivors in arrival order (prefix-stable greedy).
	replaceDIMM := func(dimm int) {
		keep := live[:0]
		for _, lf := range live {
			if lf.dimm != dimm {
				keep = append(keep, lf)
			}
		}
		live = keep
		s.replaced[dimm] = true
		if planner != nil {
			state.Reset()
			for i := range live {
				live[i].repaired = planner.TryRepair(state, live[i].f, s.cfg.WayLimit)
			}
		}
	}

	hits := s.hits
	for _, f := range nf.Faults {
		recordFault(f)
		dimm := f.Dev.DIMMIndex(g)
		newRepaired := false
		if f.Permanent() {
			anyPermanent = true
			if di := dimm*devPer + f.Dev.Device; !s.devSeen[di] {
				s.devSeen[di] = true
				s.devCount[dimm]++
			}

			// The repair policy acts on every observed permanent fault
			// before errors can accumulate (Section 4.1.1): a repairable
			// fault never contributes to a DUE, even when it lands on top
			// of an older unrepairable fault, because its data stops being
			// served from the faulty cells.
			if planner != nil {
				newRepaired = planner.TryRepair(state, f, s.cfg.WayLimit)
				if newRepaired {
					rm.repairs.Inc()
				} else {
					rm.repairMisses.Inc()
				}
			}
			live = append(live, liveFault{f: f, dimm: dimm, repaired: newRepaired})
		}

		// Error analysis: an unrepaired new fault that shares an ECC
		// codeword with a live, unrepaired fault on another device of the
		// same rank produces an uncorrectable word. Live faults across the
		// whole channel are considered because MirrorRanks faults project
		// onto sibling ranks.
		hits = hits[:0]
		if !newRepaired {
			for i := range live {
				lf := &live[i]
				if lf.repaired || lf.f == f {
					continue
				}
				if fault.Overlaps(f, lf.f, g) {
					hits = append(hits, lf.f)
				}
			}
		}
		if len(hits) > 0 {
			res.DUEs += 1 - sdcAliasProb
			res.SDCs += sdcAliasProb
			// Three devices sharing one codeword defeats the detection
			// guarantee outright; that needs the two older faults to also
			// overlap each other at the new fault's coordinates.
		tripleScan:
			for i := 0; i < len(hits); i++ {
				for j := i + 1; j < len(hits); j++ {
					if fault.Overlaps(hits[i], hits[j], g) {
						res.SDCs += tripleSDCProb
						break tripleScan // count at most one per event
					}
				}
			}
			// ReplA: the DIMM "exhibited a DUE" (Section 4.1.1's baseline
			// policy); every overlap here implicates a live permanent
			// fault, so the implicated DIMM is retired. A DUE raised by a
			// transient fault landing on a permanently faulty DIMM still
			// identifies that DIMM as broken.
			if s.cfg.Policy == ReplaceAfterDUE {
				res.Replacements++
				replaceDIMM(hits[0].Dev.DIMMIndex(g))
				nodeReplaced = true
				// The new fault leaves with the replaced DIMM, except in
				// the rare mirror-rank case where it lives on a sibling
				// DIMM and simply stays in service.
				continue
			}
		}

		if !f.Permanent() {
			continue
		}

		// ReplB: an unrepaired permanent fault that produces frequent
		// corrected errors triggers replacement.
		if s.cfg.Policy == ReplaceAfterThreshold && !newRepaired && s.triggersReplB(f) {
			res.Replacements++
			replaceDIMM(dimm)
			nodeReplaced = true
		}
	}

	for _, lf := range live {
		if !lf.repaired {
			s.unrepaired[lf.dimm] = true
		}
	}
	if anyPermanent {
		res.FaultyNodes++
	}
	for dimm := 0; dimm < nDIMMs; dimm++ {
		if s.devCount[dimm] == 0 {
			continue
		}
		res.FaultyDIMMs++
		if s.devCount[dimm] >= 2 {
			res.MultiDeviceFaultDIMMs++
		}
		// A DIMM counts as transparently repaired when it had permanent
		// faults, was never replaced, and none remain unrepaired.
		if s.unrepaired[dimm] {
			nodeUnrepaired = true
		} else if planner != nil && !s.replaced[dimm] {
			res.RepairedDIMMs++
		}
	}
	s.live = live[:0]
	s.hits = hits[:0]
	if anyPermanent && planner != nil && !nodeUnrepaired && !nodeReplaced {
		res.RepairedNodes++
	}
}

// triggersReplB decides whether an unrepaired permanent fault produces
// corrected errors frequently enough for the aggressive replacement policy.
func (s *nodeSim) triggersReplB(f *fault.Fault) bool {
	if !f.Intermittent {
		return true // hard-permanent faults error on nearly every access
	}
	return f.ActivationsPerHour >= replBActivationsPerHour
}
