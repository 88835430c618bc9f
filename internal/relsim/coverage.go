package relsim

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/obs"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// CoverageConfig describes a repair-coverage study (Figures 8, 10, 11):
// sample nodes after the full horizon, and for every faulty node ask each
// repair engine whether it can fully repair the node under each LLC way
// limit, and how much LLC capacity that repair needs.
type CoverageConfig struct {
	Model    fault.Config
	Planners []repair.Planner
	// WayLimits are evaluated per planner (paper: 1, 4, 16).
	WayLimits []int
	// FaultyNodes is how many faulty nodes to collect; sampling stops
	// after MaxNodes regardless.
	FaultyNodes int
	MaxNodes    int
	Seed        uint64
	// Exec attaches the worker pool, monitor, checkpoint store and trace
	// recorder; none of it enters the fingerprint.
	harness.Exec

	// trialHook, when set (tests only), runs at the start of every node
	// trial with the global node index.
	trialHook func(node int)

	// planHists caches the per-planner plan-capacity histograms so the
	// per-node hot path records without a registry lookup.
	planHists []*obs.Histogram
}

// DefaultCoverageConfig evaluates the paper's default engines and limits.
func DefaultCoverageConfig() CoverageConfig {
	return CoverageConfig{
		Model:       fault.DefaultConfig(),
		WayLimits:   []int{1, 4, 16},
		FaultyNodes: 20000,
		MaxNodes:    5_000_000,
		Seed:        7,
	}
}

// CoverageCurve is the cumulative repair coverage of one (planner, way
// limit) pair: the fraction of faulty nodes fully repairable within a given
// LLC capacity budget.
type CoverageCurve struct {
	Planner  string
	WayLimit int

	faultyNodes int
	repairable  int
	caps        stats.Quantiler // bytes needed, one sample per repairable node
}

// FaultyNodes returns the number of faulty nodes observed.
func (c *CoverageCurve) FaultyNodes() int { return c.faultyNodes }

// Coverage returns the asymptotic coverage: repairable nodes (under the way
// limit, any capacity) over faulty nodes.
func (c *CoverageCurve) Coverage() float64 {
	if c.faultyNodes == 0 {
		return 0
	}
	return float64(c.repairable) / float64(c.faultyNodes)
}

// CoverageAt returns the fraction of faulty nodes repairable with at most
// the given LLC capacity in bytes.
func (c *CoverageCurve) CoverageAt(capBytes int64) float64 {
	if c.faultyNodes == 0 {
		return 0
	}
	return c.caps.CDFAt(float64(capBytes)) * float64(c.repairable) / float64(c.faultyNodes)
}

// CapacityQuantile returns the LLC bytes needed at quantile p among
// repairable nodes (e.g. the "90% of nodes need at most X KiB" numbers).
func (c *CoverageCurve) CapacityQuantile(p float64) float64 {
	return c.caps.Quantile(p)
}

// CoverageResult holds one curve per (planner, way limit).
type CoverageResult struct {
	Curves      []*CoverageCurve
	FaultyNodes int
	TotalNodes  int
	// FaultyFraction is faulty nodes over all sampled nodes (the paper
	// reports 12% at 1x FIT and 71% at 10x over 6 years).
	FaultyFraction float64
	// SkippedTrials and Skips are always zero: a panicking trial fails its
	// study. They stay because result digests hash this struct's JSON,
	// which carries "SkippedTrials":0,"Skips":null.
	SkippedTrials int
	Skips         []struct{}
}

// Curve finds the curve for (planner, wayLimit); nil if absent.
func (r *CoverageResult) Curve(planner string, wayLimit int) *CoverageCurve {
	for _, c := range r.Curves {
		if c.Planner == planner && c.WayLimit == wayLimit {
			return c
		}
	}
	return nil
}

// Validate reports the first configuration error, if any. CoverageStudyCtx
// applies it on entry; the scenario layer calls it directly.
func (cfg *CoverageConfig) Validate() error {
	if len(cfg.Planners) == 0 {
		return fmt.Errorf("relsim: no planners configured")
	}
	for i, p := range cfg.Planners {
		if p == nil {
			return fmt.Errorf("relsim: planner %d is nil", i)
		}
	}
	if len(cfg.WayLimits) == 0 {
		return fmt.Errorf("relsim: no way limits configured")
	}
	for _, wl := range cfg.WayLimits {
		if wl <= 0 {
			return fmt.Errorf("relsim: way limit %d must be positive", wl)
		}
	}
	if cfg.FaultyNodes <= 0 || cfg.MaxNodes <= 0 {
		return fmt.Errorf("relsim: FaultyNodes and MaxNodes must be positive")
	}
	if err := cfg.Model.Geometry.Validate(); err != nil {
		return fmt.Errorf("relsim: %w", err)
	}
	return nil
}

// covChunkSize is the scheduling/checkpointing granularity of coverage
// studies (nodes per chunk).
const covChunkSize = 2048

// TotalTrials is the number of candidate nodes CoverageStudyCtx scans in
// the worst case (MaxNodes). The faulty-node budget cuts the scan short, so
// a completed study's checkpoint usually holds a prefix of its chunks.
func (cfg *CoverageConfig) TotalTrials() int { return cfg.MaxNodes }

// Section is the study's checkpoint/journal section:
// "coverage-"+Fingerprint(), split into chunks of covChunkSize over
// [0, TotalTrials) (see Config.Section).
func (cfg *CoverageConfig) Section() harness.Section {
	fp := cfg.Fingerprint()
	return harness.Section{Name: "coverage-" + fp, Fingerprint: fp,
		Chunking: harness.Chunking{Size: covChunkSize, Trials: cfg.TotalTrials()}}
}

// covCurveChunk is one curve's contribution from one chunk: how many of the
// chunk's faulty nodes are repairable, and the per-node capacity samples.
type covCurveChunk struct {
	Repairable int       `json:"repairable"`
	Caps       []float64 `json:"caps,omitempty"`
}

// covChunk is the persisted result of one node-index chunk.
type covChunk struct {
	Nodes  int `json:"nodes"`
	Faulty int `json:"faulty"`
	// Skipped is never written: it is read only so that a logged chunk
	// that skipped panicking trials (written before trials failed fast)
	// is recomputed instead of folded.
	Skipped int             `json:"skipped,omitempty"`
	Curves  []covCurveChunk `json:"curves"`
}

// Fingerprint identifies the statistical content of the study configuration
// for checkpoint compatibility and journal replay.
func (cfg *CoverageConfig) Fingerprint() string {
	names := make([]string, len(cfg.Planners))
	for i, p := range cfg.Planners {
		names[i] = p.Name()
	}
	return harness.Fingerprint("relsim.CoverageStudy", cfg.Model, names,
		cfg.WayLimits, cfg.FaultyNodes, cfg.MaxNodes, cfg.Seed, covChunkSize)
}

// CoverageStudy runs the Monte Carlo coverage experiment.
func CoverageStudy(cfg CoverageConfig) (*CoverageResult, error) {
	return CoverageStudyCtx(context.Background(), cfg)
}

// CoverageStudyCtx is CoverageStudy with cancellation: when ctx is cancelled
// the study stops at the next chunk boundary, with every computed chunk
// logged, and returns ctx's error.
//
// Determinism: node i always samples from fork(i), chunks cover fixed index
// ranges, and the final statistics aggregate exactly the chunk-ordered
// prefix whose cumulative faulty-node count first reaches cfg.FaultyNodes
// (or every chunk when MaxNodes is exhausted first). Workers may
// speculatively compute chunks beyond that prefix; their results are
// discarded. The outcome is therefore identical for every worker count,
// which is what makes checkpoint/resume reproduce an uninterrupted run
// exactly.
func CoverageStudyCtx(ctx context.Context, cfg CoverageConfig) (*CoverageResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.planHists = make([]*obs.Histogram, len(cfg.Planners))
	for i, pl := range cfg.Planners {
		cfg.planHists[i] = coveragePlanBytesHist(pl.Name())
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return nil, err
	}
	res := &CoverageResult{}
	for _, pl := range cfg.Planners {
		for _, wl := range cfg.WayLimits {
			res.Curves = append(res.Curves, &CoverageCurve{Planner: pl.Name(), WayLimit: wl})
		}
	}
	cumFaulty := 0  // faulty nodes in folded chunks
	specFaulty := 0 // faulty nodes in every completed chunk, folded or not
	study := harness.Chunked[*covChunk]{
		Exec: cfg.Exec, Section: cfg.Section(), Kernel: kernel,
		Decode: func(_, _ int, raw json.RawMessage) (*covChunk, bool) {
			var ch covChunk
			if json.Unmarshal(raw, &ch) != nil || len(ch.Curves) != len(res.Curves) || ch.Skipped > 0 {
				return nil, false
			}
			return &ch, true
		},
		Fold: func(_ int, ch *covChunk) bool {
			res.add(ch)
			cumFaulty += ch.Faulty
			return cumFaulty >= cfg.FaultyNodes
		},
		Enough: func(ch *covChunk) bool {
			specFaulty += ch.Faulty
			return specFaulty >= cfg.FaultyNodes
		},
	}
	if err := study.Run(ctx); err != nil {
		return nil, err
	}
	if res.TotalNodes > 0 {
		res.FaultyFraction = float64(res.FaultyNodes) / float64(res.TotalNodes)
	}
	return res, nil
}

// add folds one chunk into the result and its curves.
func (r *CoverageResult) add(ch *covChunk) {
	r.TotalNodes += ch.Nodes
	r.FaultyNodes += ch.Faulty
	for c, cc := range ch.Curves {
		curve := r.Curves[c]
		curve.faultyNodes += ch.Faulty
		curve.repairable += cc.Repairable
		for _, b := range cc.Caps {
			curve.caps.Add(b)
		}
	}
}

// kernel builds the study's chunk kernel for harness.Chunked: a factory of
// per-worker chunk functions, each with its own trial scratch. The study and
// the journal replayer execute chunks through it alike.
func (cfg *CoverageConfig) kernel() (func() func(lo, hi int) (*covChunk, error), error) {
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	fk := stats.NewRNG(cfg.Seed).Forker()
	return func() func(lo, hi int) (*covChunk, error) {
		sc := &covScratch{model: model}
		return func(lo, hi int) (*covChunk, error) { return cfg.coverageChunk(fk, lo, hi, sc) }
	}, nil
}

// covScratch is one worker's reusable coverage-trial state: the fault model
// it samples, fault-sampling buffers, the per-trial substream RNG, the
// permanent-fault filter buffer, and one recycled Plan per planner. Every
// buffer is reused across trials, so a steady-state coverage trial with the
// LLC and PPR planners allocates nothing; only the chunk payload grows.
type covScratch struct {
	model  *fault.Model
	sample fault.SampleScratch
	rng    stats.RNG
	perm   []*fault.Fault
	plans  []*repair.Plan
}

// coverageChunk is the coverage trial kernel: nodes [lo, hi) are sampled and
// planned in index order, each accumulated straight into the chunk. A
// panicking trial fails the chunk (see failTrial).
func (cfg *CoverageConfig) coverageChunk(fk stats.Forker, lo, hi int, sc *covScratch) (ch *covChunk, err error) {
	node := lo
	defer failTrial(&node, cfg.Seed, &err)
	ch = &covChunk{Nodes: hi - lo, Curves: make([]covCurveChunk, len(cfg.Planners)*len(cfg.WayLimits))}
	for ; node < hi; node++ {
		cfg.coverageTrial(fk, node, ch, sc)
	}
	// The capacity samples arrive in node order, which is deterministic;
	// they are sorted because the chunk payload bytes are part of the
	// contract (campaign logs, equiv goldens, bench digests) and have
	// always held them sorted.
	for c := range ch.Curves {
		sort.Float64s(ch.Curves[c].Caps)
	}
	rm.covNodes.Add(int64(ch.Nodes))
	rm.covFaulty.Add(int64(ch.Faulty))
	return ch, nil
}

// coverageTrial samples node `node` from the physical fault process and
// records each curve's outcome into ch. The node's RNG stream is derived in
// place via Forker.Substream (bit-identical to root.Fork(node)), sampling
// and permanent-fault filtering reuse sc's buffers, and the planners plan
// into recycled Plans.
func (cfg *CoverageConfig) coverageTrial(fk stats.Forker, node int, ch *covChunk, sc *covScratch) {
	if cfg.trialHook != nil {
		cfg.trialHook(node)
	}
	fk.Substream(uint64(node), &sc.rng)
	nf := sc.model.SampleNodeScratch(&sc.rng, &sc.sample)
	sc.perm = nf.PermanentFaultsInto(sc.perm)
	if len(sc.perm) == 0 {
		return
	}
	ch.Faulty++
	if len(sc.plans) != len(cfg.Planners) {
		sc.plans = make([]*repair.Plan, len(cfg.Planners))
		for i := range sc.plans {
			sc.plans[i] = &repair.Plan{}
		}
	}
	k := 0
	for pi, pl := range cfg.Planners {
		plan := repair.PlanInto(pl, sc.plans[pi], sc.perm)
		if pi < len(cfg.planHists) && cfg.planHists[pi] != nil {
			cfg.planHists[pi].Observe(float64(plan.Bytes))
		}
		for _, wl := range cfg.WayLimits {
			if plan.RepairableUnder(wl) {
				cc := &ch.Curves[k]
				cc.Repairable++
				cc.Caps = append(cc.Caps, float64(plan.Bytes))
			}
			k++
		}
	}
}
