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
	// true is returned; on failure the state is unchanged.
	TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool
}

// llcState is the incremental state of the LLC-based planners. The per-set
// counters are dense arrays (one slot per LLC set) cleared through touched
// lists, and the line sets reuse their tables across faults and Resets, so
// steady-state TryRepair calls allocate nothing.
type llcState struct {
	seen        lineSet // lines committed by accepted repairs
	load        []int32 // committed per-set line count
	loadTouched []int32
	// Per-call working state for the candidate fault.
	newSeen       lineSet
	demand        []int32
	demandTouched []int32
}

// Reset implements NodeState.
func (s *llcState) Reset() {
	s.seen.reset()
	for _, set := range s.loadTouched {
		s.load[set] = 0
	}
	s.loadTouched = s.loadTouched[:0]
}

// NewState implements Incremental.
func (p *LLCPlanner) NewState() NodeState {
	n := 1 << p.mapper.SetBits()
	return &llcState{load: make([]int32, n), demand: make([]int32, n)}
}

// TryRepair implements Incremental for RelaxFault and FreeFault.
func (p *LLCPlanner) TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool {
	s := st.(*llcState)
	if wayLimit <= 0 {
		return false
	}
	// First pass: collect the fault's new lines and per-set demand,
	// deduplicating both against prior repairs and within the fault.
	s.newSeen.reset()
	for _, set := range s.demandTouched {
		s.demand[set] = 0
	}
	s.demandTouched = s.demandTouched[:0]
	fits := true
	mappable := p.ForEachLine(f, func(_, _, _, _ int, set int32, tag uint64) bool {
		k := lineKey{set: set, tag: tag}
		if s.seen.has(k) || !s.newSeen.insert(k) {
			return true
		}
		if s.demand[set] == 0 {
			s.demandTouched = append(s.demandTouched, set)
		}
		s.demand[set]++
		fits = int(s.load[set]+s.demand[set]) <= wayLimit
		return fits
	})
	if !mappable || !fits {
		return false
	}
	// Commit. Iteration order is insertion order, but the increments
	// commute, so the resulting state matches the old map-based commit.
	for _, k := range s.newSeen.list {
		s.seen.insert(k)
		if s.load[k.set] == 0 {
			s.loadTouched = append(s.loadTouched, k.set)
		}
		s.load[k.set]++
	}
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
