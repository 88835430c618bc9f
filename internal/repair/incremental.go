package repair

import "relaxfault/internal/fault"

// NodeState is per-node incremental planning state. Obtain one from
// Planner.NewState and thread it through TryRepair calls in fault arrival
// order. For RelaxFault and FreeFault the decisions match core.Controller's
// functional repair (the planner-vs-controller differential in
// internal/core); for PPR and page retirement, which PlanNodeInto runs
// greedily in arrival order too, a fault is accepted exactly when the plan
// of the faults accepted so far plus that fault is AllMappable.
type NodeState interface {
	// Reset clears the state (used when a DIMM replacement removes
	// faults; callers then replay the surviving faults).
	Reset()
}

// Incremental is Planner: every planner repairs faults one at a time. The
// name stays for the benchmark harness, which asserts it.
type Incremental = Planner

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

// NewState implements Planner.
func (p *LLCPlanner) NewState() NodeState {
	s := &llcState{}
	s.reset(1 << p.mapper.SetBits())
	return s
}

// TryRepair implements Planner for RelaxFault and FreeFault.
func (p *LLCPlanner) TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool {
	s := st.(*llcState)
	if wayLimit <= 0 {
		return false
	}
	s.demand.reset(len(s.load.n))
	fits := true
	mappable := p.walk(f, &s.placed, true, func(sets []int32) bool {
		s.demand.reserve(len(sets))
		for _, set := range sets {
			if int(s.load.n[set]+s.demand.add(set, 1)) > wayLimit {
				fits = false
				return false
			}
		}
		return true
	})
	if !mappable || !fits {
		return false
	}
	s.load.reserve(len(s.demand.touched))
	for _, set := range s.demand.touched {
		s.load.add(set, s.demand.n[set])
	}
	s.faults = append(s.faults, f)
	return true
}

// pprState tracks fused spare rows per (device, bank group), with the
// candidate fault's demand. Its maps are cleared, not reallocated, so
// steady-state planning allocates nothing.
type pprState struct {
	used map[pprGroupKey]int
	need map[pprGroupKey]int
}

func newPPRState() pprState {
	return pprState{used: make(map[pprGroupKey]int), need: make(map[pprGroupKey]int)}
}

// Reset implements NodeState. PPR fuses are physically permanent; Reset
// models DIMM replacement, where the new module arrives with fresh spares.
func (s *pprState) Reset() { clear(s.used) }

// NewState implements Planner.
func (p *pprPlanner) NewState() NodeState {
	s := newPPRState()
	return &s
}

// TryRepair implements Planner for PPR.
func (p *pprPlanner) TryRepair(st NodeState, f *fault.Fault, _ int) bool {
	return p.fuse(st.(*pprState), f)
}
