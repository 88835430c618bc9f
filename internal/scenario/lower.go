package scenario

import (
	"fmt"
	"sort"
	"strings"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/memtech"
	"relaxfault/internal/perf"
	"relaxfault/internal/power"
	"relaxfault/internal/relsim"
	"relaxfault/internal/repair"
	"relaxfault/internal/trace"
)

// GeometryDefault is the paper's evaluated node.
const GeometryDefault = "ddr3-8gib"

// llc is the LLC remap planners index against: the performance model's LLC
// configuration, so the two paths cannot drift (8MiB 16-way 64B lines:
// 8192 sets).
var llc = perf.DefaultMemConfig()

// GeometryByName resolves a geometry name against the memtech registry.
func GeometryByName(name string) (dram.Geometry, error) {
	g, err := memtech.GeometryByName(name)
	if err != nil {
		return dram.Geometry{}, fmt.Errorf("scenario: unknown geometry %q (want %s)",
			name, strings.Join(memtech.GeometryNames(), ", "))
	}
	return g, nil
}

// resolveTech resolves the scenario's memory technology: the explicit
// technology field if set, else the technology owning the scenario geometry
// (legacy specs name only a geometry and keep lowering exactly as before).
func (sc *Scenario) resolveTech() (memtech.Tech, error) {
	if sc.Technology != "" {
		tech, err := memtech.ByName(sc.Technology)
		if err != nil {
			return memtech.Tech{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		return tech, nil
	}
	geoName := sc.Geometry
	if geoName == "" {
		geoName = GeometryDefault
	}
	tech, err := memtech.ForGeometry(geoName)
	if err != nil {
		return memtech.Tech{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return tech, nil
}

// Tech returns the resolved memory technology the scenario lowers onto
// (manifests embed its name and fingerprint).
func (sc *Scenario) Tech() (memtech.Tech, error) {
	sc.Normalize()
	return sc.resolveTech()
}

// ratesByName resolves a FIT table name through the fault registry, with
// the technology's default table for the empty name.
func ratesByName(tech memtech.Tech, name string) (fault.Rates, error) {
	r, err := tech.Rates(name)
	if err != nil {
		return fault.Rates{}, fmt.Errorf("scenario: %w", err)
	}
	return r, nil
}

// policies is the replacement-policy registry; the resolver and its error
// text both derive from it.
var policies = []struct {
	name   string
	policy relsim.ReplacementPolicy
}{
	{"replace-after-due", relsim.ReplaceAfterDUE},
	{"replace-after-threshold", relsim.ReplaceAfterThreshold},
	{"none", relsim.ReplaceNever},
}

func policyNames() []string {
	names := make([]string, 0, len(policies))
	for _, e := range policies {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}

// policyByName resolves a replacement-policy name (default:
// replace-after-due).
func policyByName(name string) (relsim.ReplacementPolicy, error) {
	if name == "" {
		return relsim.ReplaceAfterDUE, nil
	}
	for _, e := range policies {
		if e.name == name {
			return e.policy, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown replacement policy %q (want %s)",
		name, strings.Join(policyNames(), ", "))
}

// faultConfig builds the fault model from the merged spec layers. The base
// is the paper's default model with the resolved geometry; the FIT table
// defaults to the technology's field-study table, and every table passes
// through Rates.Scale (Scale(1) is bit-identical to the unscaled table, so
// configurations that never mention fit_scale lower exactly onto the legacy
// defaults).
func faultConfig(tech memtech.Tech, geo dram.Geometry, spec *FaultSpec) (fault.Config, error) {
	cfg := fault.DefaultConfig()
	cfg.Geometry = geo
	if spec == nil {
		spec = &FaultSpec{}
	}
	rates, err := ratesByName(tech, spec.Rates)
	if err != nil {
		return cfg, err
	}
	scale := spec.FITScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return cfg, fmt.Errorf("scenario: negative fit_scale %v", scale)
	}
	cfg.Rates = rates.Scale(scale)
	if spec.AccelFactor != nil {
		cfg.AccelFactor = *spec.AccelFactor
		if cfg.AccelFactor <= 1 {
			cfg.AccelFactor = 1
		}
	}
	if spec.AccelNodeFrac != nil {
		cfg.AccelNodeFrac = *spec.AccelNodeFrac
	}
	if spec.AccelDIMMFrac != nil {
		cfg.AccelDIMMFrac = *spec.AccelDIMMFrac
	}
	return cfg, nil
}

// buildPlanner constructs the named repair engine. The repair constructors
// validate their inputs, so a bad budget is an error here, not a clamp or a
// downstream panic. PPR spare budgets default to the technology's
// provisioning.
func buildPlanner(spec PlannerSpec, tech memtech.Tech, geo dram.Geometry) (repair.Planner, error) {
	needsMapper := spec.Kind == "relaxfault" || spec.Kind == "freefault" || spec.Kind == "page-retire"
	var m *addrmap.Mapper
	if needsMapper {
		var err error
		m, err = addrmap.New(geo, llc.LLCSets)
		if err != nil {
			return nil, fmt.Errorf("scenario: planner %s: %w", spec.Kind, err)
		}
	}
	switch spec.Kind {
	case "relaxfault":
		return repair.NewRelaxFault(m, llc.LLCWays, repair.RelaxFaultOptions{
			NoCoalescing: spec.NoCoalescing,
			NoSpread:     spec.NoSpread,
		})
	case "freefault":
		hash := true
		if spec.Hash != nil {
			hash = *spec.Hash
		}
		return repair.NewFreeFault(m, llc.LLCWays, hash)
	case "ppr":
		bpg, spares := tech.PPRBudget(geo)
		if spec.SparesPerGroup != 0 {
			spares = spec.SparesPerGroup
		}
		return repair.NewPPR(geo, bpg, spares)
	case "page-retire":
		return repair.NewPageRetirement(m, spec.PageBytes, 0) // 0: 1% of node capacity
	case "mirroring":
		return repair.NewMirroring(geo)
	default:
		return nil, fmt.Errorf("scenario: unknown planner kind %q (want relaxfault, freefault, ppr, page-retire, or mirroring)", spec.Kind)
	}
}

// statsConfig copies the scenario's statistics block for one lowered run.
// nil stays nil, so scenarios without the block lower onto configurations
// whose fingerprints are bit-identical to the pre-estimator era.
func statsConfig(sp *relsim.StatsConfig) *relsim.StatsConfig {
	if sp == nil {
		return nil
	}
	c := *sp
	return &c
}

// PerfUnitConfig is one lowered (workload, prefetch degree) simulation
// cell: the base system configuration plus the lock variants to measure
// against its unlocked baseline. Tech and Energy carry the resolved
// technology name and its operation-energy table for the relative-power
// presentation.
type PerfUnitConfig struct {
	Workload       trace.Workload
	PrefetchDegree int
	Base           perf.SystemConfig
	Locks          []LockSpec
	Tech           string
	Energy         power.OpEnergies
}

// Lowered is a scenario compiled onto the simulators' own configuration
// structs. Exec attachments (workers, monitor, checkpoint) are left zero;
// the runner fills them, keeping result fingerprints independent of how a
// run executes.
type Lowered struct {
	Coverage    []relsim.CoverageConfig
	Reliability []relsim.Config
	Perf        []PerfUnitConfig
}

// Lower normalizes, validates and compiles the scenario; it is the one
// check of a spec, so a bad spec fails before any simulation work starts.
// It reports the first error: a structural problem (schema, name, kind,
// sections) or any configuration error the simulators would reject —
// planner budgets out of range, invalid geometries, bad lock
// configurations. Every configuration it produces has passed the target
// package's validation; for preset scenarios the output is bit-for-bit the
// configuration the legacy experiment code built.
func (sc *Scenario) Lower() (*Lowered, error) {
	sc.Normalize()
	if sc.Schema != Schema {
		return nil, fmt.Errorf("scenario: unsupported schema %q (want %q)", sc.Schema, Schema)
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	sections := map[Kind]bool{
		KindCoverage:    sc.Coverage != nil,
		KindReliability: sc.Reliability != nil,
		KindPerf:        sc.Perf != nil,
	}
	switch sc.Kind {
	case KindStatic:
	case KindCoverage, KindReliability, KindPerf:
		if !sections[sc.Kind] {
			return nil, fmt.Errorf("scenario %s: kind %q requires a %q section", sc.Name, sc.Kind, sc.Kind)
		}
		n := 0
		for _, set := range sections {
			if set {
				n++
			}
		}
		if n > 1 {
			return nil, fmt.Errorf("scenario %s: exactly one of coverage/reliability/perf may be set, found %d", sc.Name, n)
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown kind %q (want static, coverage, reliability, or perf)", sc.Name, sc.Kind)
	}
	if sc.Statistics != nil && sc.Kind != KindReliability {
		return nil, fmt.Errorf("scenario %s: the statistics block applies to reliability scenarios, not %q", sc.Name, sc.Kind)
	}
	tech, err := sc.resolveTech()
	if err != nil {
		return nil, err
	}
	out := &Lowered{}
	switch sc.Kind {
	case KindCoverage:
		return out, sc.lowerCoverage(out, tech)
	case KindReliability:
		return out, sc.lowerReliability(out, tech)
	case KindPerf:
		return out, sc.lowerPerf(out, tech)
	}
	return out, nil
}

// Sections plans the lowered scenario's checkpoint sections without running
// it, in the exact order RunCtx executes them (coverage studies, then
// reliability cells; perf units do not checkpoint). Lowerings of
// campaign-equivalent scenarios produce index-aligned section lists, which
// is what lets a store entry's chunks be re-journaled under a new budget's
// section names.
func (low *Lowered) Sections() []harness.Section {
	var out []harness.Section
	for i := range low.Coverage {
		out = append(out, low.Coverage[i].Section())
	}
	for i := range low.Reliability {
		out = append(out, low.Reliability[i].Section())
	}
	return out
}

func (sc *Scenario) lowerCoverage(out *Lowered, tech memtech.Tech) error {
	if len(sc.Coverage.Studies) == 0 {
		return fmt.Errorf("scenario %s: coverage scenario needs at least one study", sc.Name)
	}
	for i, st := range sc.Coverage.Studies {
		geoName := st.Geometry
		if geoName == "" {
			geoName = sc.Geometry
		}
		geo, err := GeometryByName(geoName)
		if err != nil {
			return fmt.Errorf("scenario %s: study %d: %w", sc.Name, i, err)
		}
		model, err := faultConfig(tech, geo, mergeFault(sc.Fault, st.Fault))
		if err != nil {
			return fmt.Errorf("scenario %s: study %d: %w", sc.Name, i, err)
		}
		cfg := relsim.DefaultCoverageConfig()
		cfg.Model = model
		cfg.Seed = *sc.Seed
		cfg.FaultyNodes = int(float64(sc.Budget.FaultyNodes) * st.FaultyNodesFrac)
		cfg.MaxNodes = st.MaxNodes
		cfg.WayLimits = append([]int(nil), st.WayLimits...)
		for _, ps := range st.Planners {
			p, err := buildPlanner(ps, tech, geo)
			if err != nil {
				return fmt.Errorf("scenario %s: study %d: %w", sc.Name, i, err)
			}
			cfg.Planners = append(cfg.Planners, p)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario %s: study %d: %w", sc.Name, i, err)
		}
		out.Coverage = append(out.Coverage, cfg)
	}
	return nil
}

func (sc *Scenario) lowerReliability(out *Lowered, tech memtech.Tech) error {
	if len(sc.Reliability.Cells) == 0 {
		return fmt.Errorf("scenario %s: reliability scenario needs at least one cell", sc.Name)
	}
	geo, err := GeometryByName(sc.Geometry)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	base := mergeFault(sc.Fault, sc.Reliability.Fault)
	for i, cell := range sc.Reliability.Cells {
		model, err := faultConfig(tech, geo, mergeFault(base, cell.Fault))
		if err != nil {
			return fmt.Errorf("scenario %s: cell %d (%s): %w", sc.Name, i, cell.Label, err)
		}
		policy, err := policyByName(cell.Policy)
		if err != nil {
			return fmt.Errorf("scenario %s: cell %d (%s): %w", sc.Name, i, cell.Label, err)
		}
		cfg := relsim.DefaultConfig()
		cfg.Model = model
		cfg.Nodes = sc.Budget.Nodes
		cfg.Replicas = sc.Budget.Replicas
		cfg.Seed = *sc.Seed
		cfg.Policy = policy
		cfg.WayLimit = cell.WayLimit
		cfg.Stats = statsConfig(sc.Statistics)
		if cell.Planner != nil {
			p, err := buildPlanner(*cell.Planner, tech, geo)
			if err != nil {
				return fmt.Errorf("scenario %s: cell %d (%s): %w", sc.Name, i, cell.Label, err)
			}
			cfg.Planner = p
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario %s: cell %d (%s): %w", sc.Name, i, cell.Label, err)
		}
		out.Reliability = append(out.Reliability, cfg)
	}
	return nil
}

func (sc *Scenario) lowerPerf(out *Lowered, tech memtech.Tech) error {
	if len(sc.Perf.Locks) == 0 {
		return fmt.Errorf("scenario %s: perf scenario needs at least one lock configuration", sc.Name)
	}
	if l := sc.Perf.Locks[0]; l.Ways != 0 || l.Bytes != 0 {
		return fmt.Errorf("scenario %s: locks[0] must be the unlocked baseline (0 ways, 0 bytes); it provides the alone-IPC denominators", sc.Name)
	}
	var workloads []trace.Workload
	if len(sc.Perf.Workloads) == 0 {
		workloads = trace.Workloads()
	} else {
		for _, name := range sc.Perf.Workloads {
			w := trace.WorkloadByName(name)
			if w == nil {
				return fmt.Errorf("scenario %s: unknown workload %q", sc.Name, name)
			}
			workloads = append(workloads, *w)
		}
	}
	for _, w := range workloads {
		for _, deg := range sc.Perf.PrefetchDegrees {
			cfg := perf.DefaultSystemConfig()
			cfg.Mem.Geometry = tech.PerfGeometry()
			cfg.Mem.Timing = tech.Timing
			cfg.TargetInstructions = sc.Budget.Instructions
			cfg.Seed = *sc.Seed
			cfg.PrefetchDegree = deg
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("scenario %s: workload %s: %w", sc.Name, w.Name, err)
			}
			for _, l := range sc.Perf.Locks[1:] {
				lc := cfg
				lc.LockWays = l.Ways
				lc.LockBytes = l.Bytes
				if err := lc.Validate(); err != nil {
					return fmt.Errorf("scenario %s: lock %s: %w", sc.Name, l.Label, err)
				}
			}
			out.Perf = append(out.Perf, PerfUnitConfig{
				Workload:       w,
				PrefetchDegree: deg,
				Base:           cfg,
				Locks:          append([]LockSpec(nil), sc.Perf.Locks...),
				Tech:           tech.Name,
				Energy:         tech.Energy,
			})
		}
	}
	return nil
}
