// Package obs is a zero-dependency metrics layer for the simulators: a
// registry of named counters, gauges, fixed-bucket histograms, and timers
// with cheap hot-path recording (one uncontended atomic op per event) and
// two exporters — a Prometheus-style text exposition and a JSON snapshot
// (see export.go).
//
// Metric names are hierarchical, dot-separated, lowercase
// ("perf.llc.hits", "relsim.trials_done"); the Prometheus exporter folds
// the dots to underscores. Instrumented packages bind their handles once
// against Default() at init, so every metric family exists (zero-valued)
// in every snapshot regardless of which experiments ran — consumers can
// rely on the catalogue in OBSERVABILITY.md being present.
//
// All recording methods are safe for concurrent use and safe on nil
// receivers, so conditionally-instrumented code paths need no branches.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Decrements are not checked; counters are trusted monotone.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float metric, for accumulating
// expectations (e.g. expected DUEs) where events carry fractional weight.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v via a CAS loop (uncontended in practice).
func (f *FloatCounter) Add(v float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// Gauge is a set-to-current-value metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds,
// inclusive), plus an implicit +Inf overflow bucket, and tracks sum and
// count. Bucket bounds are fixed at registration: recording is one binary
// search plus three atomic ops, with no allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	total  atomic.Int64
	sum    FloatCounter
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or overflow
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// AddTally merges a tally taken against the histogram's bounds: counts[i]
// observations in bucket i (len(bounds)+1 entries, the last the +Inf
// bucket) whose values sum to sum. A caller that keeps its own
// single-goroutine tally pays one atomic op per bucket at the end instead
// of three per sample. A counts slice of another length panics.
func (h *Histogram) AddTally(counts []int64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: tally of %d buckets for a histogram of %d", len(counts), len(h.counts)))
	}
	var n int64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	if n != 0 {
		h.total.Add(n)
		h.sum.Add(sum)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Timer is a histogram of durations in seconds.
type Timer struct{ h *Histogram }

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}

// Since records the time elapsed since t0.
func (t *Timer) Since(t0 time.Time) {
	if t == nil {
		return
	}
	t.Observe(time.Since(t0))
}

// DurationBuckets are the default timer buckets (seconds): 1ms to 10min.
var DurationBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}

// DepthBuckets suit small queue-occupancy histograms.
var DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}

// ByteBuckets suit capacity histograms (1KiB to 2MiB).
var ByteBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20}

// Registry holds named metrics. The zero value is not usable; use New or
// Default. A nil *Registry is a valid "disabled" registry: its lookup
// methods return nil handles whose recording methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

var std = New()

// Default returns the process-wide registry the instrumented packages bind
// to at init and the CLI exports from.
func Default() *Registry { return std }

// lookup returns the existing metric under name or registers the one made
// by mk. A name registered with a different metric kind is a programming
// error and panics.
func lookup[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	return t
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// FloatCounter returns the float counter registered under name.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *FloatCounter { return &FloatCounter{} })
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (strictly increasing; a +Inf overflow
// bucket is implicit). Re-registration returns the existing histogram and
// ignores the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return h
	})
}

// Timer returns the timer registered under name (DurationBuckets).
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Timer {
		h := &Histogram{bounds: append([]float64(nil), DurationBuckets...)}
		h.counts = make([]atomic.Int64, len(DurationBuckets)+1)
		return &Timer{h: h}
	})
}

// names returns the sorted metric names (for deterministic export).
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
