// Package scenario turns every experiment into data: a typed, versioned
// Scenario spec names a geometry, a fault model, repair planners with
// budgets, an ECC/replacement policy, a workload mix, and a trial budget,
// and one generic runner lowers any spec onto the simulation entry points
// (relsim.RunCtx and relsim.CoverageStudyCtx; for perf, runPerf runs each
// simulation as one engine chunk on its worker's perf.Machine) with the
// same checkpoints, metrics, and manifests as the hand-written experiments.
// The paper's figures are preset scenarios in the registry (see
// registry.go); anything else — a Hopper-rates PPR-budget sweep, a coverage
// study on HBM at 10x FIT — is a JSON file away.
//
// Lowering is exact: a preset scenario produces bit-for-bit the same
// relsim/perf configurations as the legacy experiment code it replaced, so
// results and checkpoint bytes are byte-identical for any worker count
// (internal/experiments pins this with golden files).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"relaxfault/internal/harness"
	"relaxfault/internal/memtech"
	"relaxfault/internal/relsim"
)

// Schema is the versioned identifier every scenario document must carry.
// Consumers reject schemas they do not understand rather than guess.
const Schema = "relaxfault-scenario/v1"

// Kind selects which simulation path a scenario lowers onto.
type Kind string

const (
	// KindStatic marks presets that are pure presentation (tables computed
	// from configuration, no Monte Carlo); running one is a no-op.
	KindStatic Kind = "static"
	// KindCoverage lowers onto relsim.CoverageStudyCtx.
	KindCoverage Kind = "coverage"
	// KindReliability lowers onto relsim.RunCtx, one run per cell.
	KindReliability Kind = "reliability"
	// KindPerf lowers onto the perf weighted-speedup path.
	KindPerf Kind = "perf"
)

// Scenario is the declarative description of one experiment. Exactly one of
// Coverage, Reliability, or Perf must be set, matching Kind. Zero values
// mean "default": Normalize fills them in, and Canonical emits the fully
// resolved document (the form embedded in run manifests).
type Scenario struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	Kind        Kind   `json:"kind"`
	Description string `json:"description,omitempty"`

	// Seed makes the scenario deterministic (default 7).
	Seed *uint64 `json:"seed,omitempty"`
	// Budget sets the Monte Carlo / simulation effort.
	Budget Budget `json:"budget"`
	// Technology names the memory technology (internal/memtech: channel
	// timing, operation energies, default FIT table, PPR spare
	// provisioning) the scenario lowers onto. Empty means "the technology
	// owning the geometry" (ddr3-8gib → ddr3-1600), which keeps legacy
	// specs byte-stable; setting it without a geometry selects the
	// technology's default node organisation.
	Technology string `json:"technology,omitempty"`
	// Geometry names the evaluated node's DRAM organisation (default
	// "ddr3-8gib"); studies and cells may override it.
	Geometry string `json:"geometry,omitempty"`
	// Fault adjusts the fault model for the whole scenario; sections and
	// cells may override individual knobs.
	Fault *FaultSpec `json:"fault,omitempty"`
	// Statistics selects a reliability scenario's Monte Carlo estimator and
	// the optional sequential-stopping rule; it lowers onto every cell's
	// relsim.Config.Stats. Lower refuses it on every other kind: coverage
	// studies sample the physical fault process only. Absent means the
	// naive pipeline; because the field is omitted from canonical forms when
	// nil, every pre-existing scenario keeps its canonical bytes and
	// fingerprint.
	Statistics *relsim.StatsConfig `json:"statistics,omitempty"`

	Coverage    *CoverageSpec    `json:"coverage,omitempty"`
	Reliability *ReliabilitySpec `json:"reliability,omitempty"`
	Perf        *PerfSpec        `json:"perf,omitempty"`
}

// Budget is the trial/instruction budget — the knobs the CLI's
// -scale quick|paper used to set. Zero fields default to the quick scale.
type Budget struct {
	// FaultyNodes is the coverage-study sample size (default 4000).
	FaultyNodes int `json:"faulty_nodes,omitempty"`
	// Nodes and Replicas size full-system reliability runs (defaults
	// 16384 and 4).
	Nodes    int `json:"nodes,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// Instructions is the per-core budget of performance runs (default
	// 300000).
	Instructions uint64 `json:"instructions,omitempty"`
}

// FaultSpec adjusts the refined fault model. Pointer fields distinguish
// "absent, keep the paper's default" from an explicit zero (the Figure 9
// sweeps include an accelerated fraction of exactly 0).
type FaultSpec struct {
	// Rates names the field-study FIT table: "cielo" (default) or
	// "hopper".
	Rates string `json:"rates,omitempty"`
	// FITScale multiplies every FIT rate (default 1; the paper's stressed
	// panels use 10).
	FITScale float64 `json:"fit_scale,omitempty"`
	// AccelFactor is the FIT acceleration of unlucky parts; values at or
	// below 1 lower to exactly 1 (no acceleration), mirroring the Figure 9
	// sweep's handling of its 0x point.
	AccelFactor *float64 `json:"accel_factor,omitempty"`
	// AccelNodeFrac and AccelDIMMFrac are the unlucky fractions.
	AccelNodeFrac *float64 `json:"accel_node_frac,omitempty"`
	AccelDIMMFrac *float64 `json:"accel_dimm_frac,omitempty"`
}

// PlannerSpec names a repair engine and its budget. Unknown kinds and
// out-of-range budgets are validation errors (surfaced by Scenario.Lower
// via the repair package's checked constructors), not silent clamps.
type PlannerSpec struct {
	// Kind is one of "relaxfault", "freefault", "ppr", "page-retire",
	// "mirroring". The remap engines plan against the performance model's
	// LLC.
	Kind string `json:"kind"`
	// NoCoalescing / NoSpread disable RelaxFault design choices (the
	// ablation studies).
	NoCoalescing bool `json:"no_coalescing,omitempty"`
	NoSpread     bool `json:"no_spread,omitempty"`
	// Hash selects FreeFault's hashed LLC indexing (default true).
	Hash *bool `json:"hash,omitempty"`
	// SparesPerGroup sets the PPR budget: spare rows per group of banks.
	// The technology provisions the group size and the default (one spare
	// per Banks/4 banks on the paper's device).
	SparesPerGroup int `json:"spares_per_group,omitempty"`
	// PageBytes is OS page retirement's frame size (default 4KiB); its
	// budget is 1% of node capacity.
	PageBytes int64 `json:"page_bytes,omitempty"`
}

// CoverageSpec runs one coverage study per entry in Studies (a multi-study
// scenario sweeps geometries, like the variants preset).
type CoverageSpec struct {
	Studies []CoverageStudy `json:"studies"`
}

// CoverageStudy is one relsim coverage study: every planner crossed with
// every way limit over a sample of faulty nodes.
type CoverageStudy struct {
	Label string `json:"label,omitempty"`
	// Geometry overrides the scenario geometry for this study.
	Geometry string `json:"geometry,omitempty"`
	// Fault overrides scenario-level fault knobs for this study.
	Fault    *FaultSpec    `json:"fault,omitempty"`
	Planners []PlannerSpec `json:"planners"`
	// WayLimits are the per-set repair caps evaluated per planner.
	WayLimits []int `json:"way_limits"`
	// FaultyNodesFrac scales the budget's sample size (default 1; the
	// geometry-variants preset uses 0.5 per organisation).
	FaultyNodesFrac float64 `json:"faulty_nodes_frac,omitempty"`
	// MaxNodes bounds total sampling regardless of how few faulty nodes
	// appear (default 5,000,000).
	MaxNodes int `json:"max_nodes,omitempty"`
}

// ReliabilitySpec runs one full-system reliability simulation per cell, in
// order.
type ReliabilitySpec struct {
	// Fault overrides scenario-level fault knobs for every cell.
	Fault *FaultSpec        `json:"fault,omitempty"`
	Cells []ReliabilityCell `json:"cells"`
}

// ReliabilityCell is one (repair mechanism, way limit, policy, fault
// overrides) combination — one bar of Figures 12-14, or one sweep point of
// Figure 9.
type ReliabilityCell struct {
	Label string `json:"label"`
	// Planner nil means no repair.
	Planner *PlannerSpec `json:"planner,omitempty"`
	// WayLimit caps repair lines per LLC set. Serialized without
	// omitempty: 0 is a meaningful value (the no-repair cells use it).
	WayLimit int `json:"way_limit"`
	// Policy is "replace-after-due" (default), "replace-after-threshold",
	// or "none".
	Policy string `json:"policy,omitempty"`
	// Fault overrides the merged scenario/section fault knobs.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// PerfSpec runs the weighted-speedup experiment: every workload crossed
// with every prefetch degree, measuring each lock configuration against
// the unlocked baseline.
type PerfSpec struct {
	// Workloads names Table 4 entries; empty means all of them.
	Workloads []string `json:"workloads,omitempty"`
	// Locks lists the repair-capacity configurations. Locks[0] must be
	// the unlocked baseline (0 ways, 0 bytes): it provides the alone-IPC
	// denominators the other configurations are measured against.
	Locks []LockSpec `json:"locks"`
	// PrefetchDegrees runs the whole mix per degree (default [0]; the
	// prefetch ablation uses [0, 4]).
	PrefetchDegrees []int `json:"prefetch_degrees,omitempty"`
}

// LockSpec is one repair-capacity configuration: Ways locks whole LLC ways,
// Bytes locks individual lines. At most one should be non-zero.
type LockSpec struct {
	Label string `json:"label"`
	Ways  int    `json:"ways,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

// DefaultBudget is the quick scale: every experiment in seconds, coarse
// error bars.
func DefaultBudget() Budget {
	return Budget{FaultyNodes: 4000, Nodes: 16384, Replicas: 4, Instructions: 300_000}
}

// PaperBudget approaches the paper's statistical resolution (minutes of
// CPU).
func PaperBudget() Budget {
	return Budget{FaultyNodes: 30000, Nodes: 16384, Replicas: 24, Instructions: 1_200_000}
}

// Normalize fills defaulted fields in place: schema, seed, budget,
// geometry, and per-section structural defaults. It is idempotent, so the
// canonical encoding of a normalized scenario round-trips exactly.
func (sc *Scenario) Normalize() {
	if sc.Schema == "" {
		sc.Schema = Schema
	}
	if sc.Seed == nil {
		seed := uint64(7)
		sc.Seed = &seed
	}
	def := DefaultBudget()
	if sc.Budget.FaultyNodes == 0 {
		sc.Budget.FaultyNodes = def.FaultyNodes
	}
	if sc.Budget.Nodes == 0 {
		sc.Budget.Nodes = def.Nodes
	}
	if sc.Budget.Replicas == 0 {
		sc.Budget.Replicas = def.Replicas
	}
	if sc.Budget.Instructions == 0 {
		sc.Budget.Instructions = def.Instructions
	}
	if sc.Geometry == "" && sc.Technology != "" {
		// A scenario naming only a technology evaluates that technology's
		// default node. Unknown names are left for Lower to reject with the
		// full registry listing.
		if tech, err := memtech.ByName(sc.Technology); err == nil {
			sc.Geometry = tech.DefaultGeometry
		}
	}
	if sc.Geometry == "" {
		sc.Geometry = GeometryDefault
	}
	if sc.Coverage != nil {
		for i := range sc.Coverage.Studies {
			st := &sc.Coverage.Studies[i]
			if st.FaultyNodesFrac == 0 {
				st.FaultyNodesFrac = 1
			}
			if st.MaxNodes == 0 {
				st.MaxNodes = 5_000_000
			}
		}
	}
	if sc.Perf != nil && len(sc.Perf.PrefetchDegrees) == 0 {
		sc.Perf.PrefetchDegrees = []int{0}
	}
	if sc.Statistics != nil && sc.Statistics.Estimator == "" {
		sc.Statistics.Estimator = "naive"
	}
}

// Canonical returns the fully resolved scenario as deterministic,
// indented JSON: normalized defaults, struct-order fields, trailing
// newline. Encoding a decoded canonical document reproduces it byte for
// byte, and the canonical form is what run manifests embed.
func (sc *Scenario) Canonical() ([]byte, error) {
	c := *sc
	c.Normalize()
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode %s: %w", sc.Name, err)
	}
	return append(data, '\n'), nil
}

// Fingerprint hashes the canonical form; two scenarios share a fingerprint
// exactly when their resolved specs are identical.
func (sc *Scenario) Fingerprint() (string, error) {
	data, err := sc.Canonical()
	if err != nil {
		return "", err
	}
	return harness.Fingerprint("scenario", string(data)), nil
}

// Decode parses a scenario document, rejecting unknown fields (a typoed
// knob must not silently evaluate the wrong experiment) and foreign
// schemas. The result is validated: it lowers.
func Decode(data []byte) (*Scenario, error) {
	sc, err := parse(data)
	if err != nil {
		return nil, err
	}
	if _, err := sc.Lower(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parse is Decode without the validating lowering, for a caller that
// lowers the scenario itself and keeps the result.
func parse(data []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return &sc, nil
}

// mergeFault overlays src's set fields onto a copy of dst; later layers
// (section, then cell) win over earlier ones (scenario).
func mergeFault(dst *FaultSpec, src *FaultSpec) *FaultSpec {
	if src == nil {
		return dst
	}
	var out FaultSpec
	if dst != nil {
		out = *dst
	}
	if src.Rates != "" {
		out.Rates = src.Rates
	}
	if src.FITScale != 0 {
		out.FITScale = src.FITScale
	}
	if src.AccelFactor != nil {
		out.AccelFactor = src.AccelFactor
	}
	if src.AccelNodeFrac != nil {
		out.AccelNodeFrac = src.AccelNodeFrac
	}
	if src.AccelDIMMFrac != nil {
		out.AccelDIMMFrac = src.AccelDIMMFrac
	}
	return &out
}
