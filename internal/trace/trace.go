// Package trace generates the synthetic memory-access streams that stand in
// for the paper's workloads (Table 4). The real evaluation ran NPB, LULESH,
// and SPEC CPU2006 binaries under a cycle-level simulator; what those
// workloads contribute to the RelaxFault experiments is purely their memory
// behaviour — intensity, working-set size, locality pattern, and write
// fraction — so each generator is parameterised to match the qualitative
// class of its benchmark. Streams are deterministic given the seed.
package trace

import (
	"math"

	"relaxfault/internal/stats"
)

// Op is one trace record: a burst of non-memory instructions followed by
// one memory access.
type Op struct {
	// NonMem is the number of non-memory instructions preceding the
	// access (models compute intensity).
	NonMem int32
	// Addr is the physical byte address accessed.
	Addr uint64
	// Write marks stores.
	Write bool
	// Critical marks loads whose value gates further progress (pointer
	// chasing, index loads); the core model blocks on them instead of
	// hiding their latency with memory-level parallelism.
	Critical bool
}

// Pattern selects the address-generation behaviour of a synthetic thread.
type Pattern int

const (
	// PatternStream walks arrays sequentially (libquantum, lbm, SP-like).
	PatternStream Pattern = iota
	// PatternStride walks with a fixed large stride (column accesses,
	// milc-like).
	PatternStride
	// PatternRandom touches the working set uniformly (DC, hash tables).
	PatternRandom
	// PatternPointer chases dependent pointers through the working set
	// (mcf, omnetpp, UA-like); every load is critical.
	PatternPointer
	// PatternStencil sweeps a grid touching neighbouring planes (LU, SP,
	// LULESH-like); high spatial reuse with a working set of several
	// planes.
	PatternStencil
	// PatternBlocked works repeatedly over cache-sized tiles (blocked
	// linear algebra; CG inner loops).
	PatternBlocked
)

// ThreadParams describes one synthetic thread.
type ThreadParams struct {
	Name string
	// MemRatio is the fraction of instructions that access memory
	// (0.01 .. 0.5); NonMem bursts are drawn to match it.
	MemRatio float64
	// WorkingSet is the bytes the thread cycles over.
	WorkingSet uint64
	// Base is the first byte of the thread's address range.
	Base uint64
	// Pattern selects address behaviour.
	Pattern Pattern
	// StrideBytes is used by PatternStride.
	StrideBytes uint64
	// WriteFrac is the store fraction of memory ops.
	WriteFrac float64
	// CriticalFrac is the fraction of loads the core must block on
	// (PatternPointer forces 1.0).
	CriticalFrac float64
	// HotFrac, when positive, directs HotProb of accesses to the first
	// HotFrac of the working set (models reuse skew).
	HotFrac float64
	HotProb float64
	Seed    uint64
}

// Thread generates one synthetic thread's infinite, deterministic stream
// of operations.
type Thread struct {
	p ThreadParams
	// logKeep is log(1-MemRatio), the denominator of the burst draw.
	logKeep float64
	rng     *stats.RNG
	cursor  uint64 // stream/stride position
	ptr     uint64 // pointer-chase position
	tile    uint64 // blocked pattern tile base
	tilePos uint64
	plane   uint64 // stencil plane cursor
}

// NewThread builds a generator from parameters. Working sets smaller than
// one cacheline are rounded up.
func NewThread(p ThreadParams) *Thread {
	if p.WorkingSet < 64 {
		p.WorkingSet = 64
	}
	if p.MemRatio <= 0 {
		p.MemRatio = 0.1
	}
	if p.Pattern == PatternPointer {
		p.CriticalFrac = 1.0
	}
	t := &Thread{p: p, logKeep: math.Log(1 - p.MemRatio)}
	t.Reset()
	return t
}

// Reset rewinds the stream to the beginning.
func (t *Thread) Reset() {
	t.rng = stats.NewRNG(t.p.Seed ^ 0xABCD1234)
	// Start every walk at a seed-dependent phase: SPMD threads sharing a
	// template must not march through the banks in lockstep (real threads
	// are offset by their domain decomposition).
	t.cursor = t.rng.Uint64() >> 16
	t.ptr = t.rng.Uint64()
	t.tile = 0
	t.tilePos = ^uint64(0) // force a fresh random tile on the first access
	t.plane = t.rng.Uint64() >> 48
}

// lines returns the working set size in cachelines.
func (t *Thread) lines() uint64 { return t.p.WorkingSet / 64 }

// Next returns the next operation.
func (t *Thread) Next() Op {
	p := &t.p
	// Draw the compute burst: with every instruction independently a
	// memory access with probability MemRatio, the run of non-memory
	// instructions before one is geometric with mean (1-r)/r. Sample it
	// exactly by inversion so the measured memory ratio matches the
	// parameter.
	burst := int32(0)
	if p.MemRatio < 1 {
		u := t.rng.Float64()
		g := math.Log(1-u) / t.logKeep
		if g > 10000 {
			g = 10000
		}
		burst = int32(g)
	}

	// Sequential patterns step at 8-byte element granularity so they keep
	// the within-line spatial locality real code has (7 of 8 element
	// accesses hit the L1 line brought in by the first); irregular
	// patterns jump between lines.
	const elem = 8
	const elemsPerLine = 64 / elem
	var addr uint64
	critical := false
	n := t.lines()
	nElems := n * elemsPerLine
	switch p.Pattern {
	case PatternStream:
		addr = p.Base + (t.cursor%nElems)*elem
		t.cursor++
	case PatternStride:
		stride := p.StrideBytes / 64
		if stride == 0 {
			stride = 16
		}
		addr = p.Base + (t.cursor%n)*64
		t.cursor += stride
	case PatternRandom:
		addr = p.Base + t.hotAdjust(t.randomLine(n), n)*64
	case PatternPointer:
		// Dependent chain: the next address is a hash of the current one,
		// so the miss latency is exposed on every hop.
		t.ptr = (t.ptr*6364136223846793005 + 1442695040888963407)
		addr = p.Base + t.hotAdjust(t.ptr%n, n)*64
		critical = true
	case PatternStencil:
		// Sweep a plane element by element; every third access touches
		// the matching point of the next plane (cross-plane reuse).
		const planeElems = 4096 * elemsPerLine // 256KiB plane
		planes := nElems / planeElems
		if planes == 0 {
			planes = 1
		}
		pos := t.cursor % planeElems
		var e uint64
		if t.cursor%3 == 2 {
			e = ((t.plane+1)%planes)*planeElems + pos
		} else {
			e = (t.plane%planes)*planeElems + pos
		}
		addr = p.Base + (e%nElems)*elem
		t.cursor++
		if t.cursor%planeElems == 0 {
			t.plane++
		}
	case PatternBlocked:
		const tileElems = 1024 * elemsPerLine // 64KiB tile, revisited 8x
		if t.tilePos >= tileElems*8 {
			t.tilePos = 0
			t.tile = t.randomLine(n)
		}
		e := t.tile*elemsPerLine + t.tilePos%tileElems
		addr = p.Base + (e%nElems)*elem
		t.tilePos++
	}
	write := t.rng.Bool(p.WriteFrac)
	if !write && !critical {
		critical = t.rng.Bool(p.CriticalFrac)
	}
	return Op{NonMem: burst, Addr: addr, Write: write, Critical: critical && !write}
}

// hotAdjust redirects a fraction of irregular accesses into the hot head of
// the working set. Accesses within the hot region are quadratically skewed
// toward its start, so the hit rate responds smoothly to cache capacity the
// way real reuse distributions do, instead of falling off an LRU cliff.
func (t *Thread) hotAdjust(lineIdx, n uint64) uint64 {
	p := &t.p
	if p.HotFrac > 0 && p.HotProb > 0 && t.rng.Bool(p.HotProb) {
		hot := uint64(float64(n) * p.HotFrac)
		if hot == 0 {
			hot = 1
		}
		u := t.rng.Float64()
		return uint64(u * u * float64(hot))
	}
	return lineIdx % n
}

// randomLine picks a uniform line index.
func (t *Thread) randomLine(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return t.rng.Uint64n(n)
}
