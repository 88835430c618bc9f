package obs

import (
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecordSnapshot hammers every metric kind from many
// goroutines while others snapshot and export concurrently; run under
// -race this is the registry's data-race certification. Final values are
// checked exactly: atomic recording must not drop events.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 10000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("test.counter")
			f := r.FloatCounter("test.float")
			g := r.Gauge("test.gauge")
			h := r.Histogram("test.hist", []float64{1, 2, 4, 8})
			tm := r.Timer("test.timer")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(0.5)
				g.Set(float64(w))
				h.Observe(float64(i % 10))
				if i%1000 == 0 {
					tm.Observe(time.Millisecond)
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots and prom exports must not race with
	// recording.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Snapshot()
					r.WriteProm(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	total := int64(workers * perWorker)
	if got := r.Counter("test.counter").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.FloatCounter("test.float").Value(); got != float64(total)/2 {
		t.Errorf("float counter = %g, want %g", got, float64(total)/2)
	}
	if got := r.Histogram("test.hist", nil).Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// Each worker observes values 0..9 uniformly; values <= 4 are 5 of 10.
	snap := r.Snapshot()["test.hist"]
	if snap.Type != "histogram" || snap.Count == nil || *snap.Count != total {
		t.Fatalf("histogram snapshot = %+v, want count %d", snap, total)
	}
	var le4 int64
	for _, b := range snap.Buckets {
		if b.LE == "4" {
			le4 = b.Count
		}
	}
	if want := total / 2; le4 != want {
		t.Errorf("cumulative count le=4 is %d, want %d", le4, want)
	}
}

// TestNilSafety verifies that a nil registry yields nil handles and that
// every recording and reading method on nil handles is a no-op, which is
// what lets instrumented code record unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	f := r.FloatCounter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	tm := r.Timer("x")
	if c != nil || f != nil || g != nil || h != nil || tm != nil {
		t.Fatalf("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(3)
	f.Add(1.5)
	g.Set(2)
	h.Observe(1)
	h.AddTally(nil, 1)
	tm.Observe(time.Second)
	tm.Since(time.Now())
	if c.Value() != 0 || f.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil handles returned non-zero values")
	}
	if r.Snapshot() != nil {
		t.Errorf("nil registry snapshot should be nil")
	}
	if err := r.WriteProm(io.Discard); err != nil {
		t.Errorf("nil registry WriteProm: %v", err)
	}
}

// TestAddTallyMatchesObserve: merging a pre-bucketed tally leaves the
// histogram exactly as observing the same samples one by one does.
func TestAddTallyMatchesObserve(t *testing.T) {
	bounds := []float64{0, 1, 2, 4, 8}
	r := New()
	one, merged := r.Histogram("one", bounds), r.Histogram("merged", bounds)
	counts := make([]int64, len(bounds)+1)
	var sum float64
	for _, v := range []float64{0, 1, 1, 3, 4, 5, 8, 9, 40} {
		one.Observe(v)
		counts[sort.SearchFloat64s(bounds, v)]++
		sum += v
	}
	merged.AddTally(counts, sum)
	merged.AddTally(make([]int64, len(counts)), 0) // an empty tally is a no-op
	snap := r.Snapshot()
	if a, b := snap["one"], snap["merged"]; !reflect.DeepEqual(a, b) {
		t.Errorf("merged tally %+v, observed samples %+v", b, a)
	}
	defer func() {
		if recover() == nil {
			t.Error("a tally with the wrong bucket count was accepted")
		}
	}()
	merged.AddTally(counts[1:], 0)
}

// TestKindMismatchPanics: registering one name as two kinds is a
// programming error and must fail loudly at the registration site.
func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic registering %q as a gauge after a counter", "dual")
		}
	}()
	r.Gauge("dual")
}

// TestHandleIdentity: repeated lookups return the same handle, so values
// accumulate in one place.
func TestHandleIdentity(t *testing.T) {
	r := New()
	a := r.Counter("same")
	b := r.Counter("same")
	if a != b {
		t.Fatalf("lookup returned distinct handles for one name")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Errorf("value = %d, want 2", a.Value())
	}
	h1 := r.Histogram("hsame", []float64{1, 2})
	h2 := r.Histogram("hsame", []float64{5, 6, 7}) // bounds ignored on re-lookup
	if h1 != h2 {
		t.Fatalf("histogram re-registration returned a distinct handle")
	}
}

func TestBadBucketsPanic(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-increasing bounds")
		}
	}()
	r.Histogram("bad", []float64{1, 1})
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"single-bit/word": "single_bit_word",
		"FreeFault+hash":  "freefault_hash",
		"RelaxFault":      "relaxfault",
		"  x  y ":         "x_y",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
