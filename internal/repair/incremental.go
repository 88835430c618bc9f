package repair

import "relaxfault/internal/fault"

// NodeState is per-node incremental planning state. Obtain one from
// Incremental.NewState and thread it through TryRepair calls in fault
// arrival order. For RelaxFault and FreeFault the decisions match
// core.Controller's functional repair (the planner-vs-controller
// differential in internal/core); for PPR and page retirement they match
// PlanNode's per-fault Mappable, which is arrival-order greedy too.
type NodeState interface {
	// Reset clears the state (used when a DIMM replacement removes
	// faults; callers then replay the surviving faults).
	Reset()
}

// Incremental is implemented by every planner in this package: it repairs
// faults one at a time, which is how the reliability simulation consumes
// them (a full PlanNode per arrival would be quadratic in the node's fault
// count and re-enumerate large extents every time).
type Incremental interface {
	Planner
	NewState() NodeState
	// TryRepair attempts to repair f on top of the repairs recorded in st
	// under the per-set way limit. On success the state is updated and
	// true is returned; on failure the state is unchanged. The state keeps
	// the accepted faults until Reset, so they must not change until then.
	TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool
}

// llcState is the incremental state of the LLC-based planners: the
// accepted faults and their per-set load, which new lines dedup against.
// The per-set tables are dense (one slot per LLC set) and cleared through
// the sets they touched, so steady-state TryRepair calls allocate nothing.
type llcState struct {
	placed
	demand setLoad // the candidate fault's new lines per set
}

// Reset implements NodeState.
func (s *llcState) Reset() { s.reset(len(s.load.n)) }

// NewState implements Incremental.
func (p *LLCPlanner) NewState() NodeState {
	s := &llcState{}
	s.reset(1 << p.mapper.SetBits())
	return s
}

// TryRepair implements Incremental for RelaxFault and FreeFault.
func (p *LLCPlanner) TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool {
	s := st.(*llcState)
	if wayLimit <= 0 {
		return false
	}
	s.demand.reset(len(s.load.n))
	fits := true
	mappable := p.walk(f, &s.placed, func(_, _, _, _ int, set int32, _ uint64) bool {
		fits = int(s.load.n[set]+s.demand.add(set, 1)) <= wayLimit
		return fits
	})
	if !mappable || !fits {
		return false
	}
	for _, set := range s.demand.touched {
		s.load.add(set, s.demand.n[set])
	}
	s.faults = append(s.faults, f)
	return true
}

// pprState tracks fused spare rows per (device, bank group).
type pprState struct {
	used map[pprGroupKey]int
}

// Reset implements NodeState. PPR fuses are physically permanent; Reset
// models DIMM replacement, where the new module arrives with fresh spares.
func (s *pprState) Reset() { clear(s.used) }

// NewState implements Incremental.
func (p *pprPlanner) NewState() NodeState {
	return &pprState{used: make(map[pprGroupKey]int)}
}

// TryRepair implements Incremental for PPR.
func (p *pprPlanner) TryRepair(st NodeState, f *fault.Fault, _ int) bool {
	s := st.(*pprState)
	sc := p.scratch()
	defer p.scratchPool.Put(sc)
	if !p.sparesNeeded(f, sc) {
		return false
	}
	for key, n := range sc.need {
		if s.used[key]+n > p.sparesPerGroup {
			return false
		}
	}
	for key, n := range sc.need {
		s.used[key] += n
	}
	return true
}
