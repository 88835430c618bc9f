package harness

// Tests for harness.Chunked on a toy payload: the index-ordered fold,
// worker-count invariance of results and view bytes, cutoff pruning,
// Enough's bound on speculation, cancellation keeping every computed chunk,
// a failing kernel failing the run, resume, and agreement of the run's
// telemetry.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxfault/internal/journal"
	"relaxfault/internal/runtrace"
)

func TestChunkingSpans(t *testing.T) {
	c := Chunking{Size: 4, Trials: 10}
	if n := c.Count(); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
	for ci, want := range [][2]int{{0, 4}, {4, 8}, {8, 10}, {12, 12}} {
		if lo, hi := c.Span(ci); lo != want[0] || hi != want[1] {
			t.Errorf("Span(%d) = [%d,%d), want [%d,%d)", ci, lo, hi, want[0], want[1])
		}
	}
	if n := (Chunking{Size: 4, Trials: 8}).Count(); n != 2 {
		t.Errorf("aligned Count = %d, want 2", n)
	}
}

// toyChunk is the test payload: an order-sensitive float sum over the
// chunk's trials, so any regrouping of the accumulation would show.
type toyChunk struct {
	Lo, Hi int
	Sum    float64
}

// toyRun is one toy campaign: its fold state plus a record of which chunks
// the kernel computed.
type toyRun struct {
	total  float64
	folded []int

	mu       sync.Mutex
	computed map[int]int // chunk lo → times computed
}

// toyOpts configures a toy campaign.
type toyOpts struct {
	workers int
	trials  int
	stopAt  float64 // fold stops once the running total reaches it (0 = never)
	// enough, if set, is Enough's threshold on the running total of every
	// completed chunk, folded or not (0 = no Enough).
	enough float64
	mon    *Monitor
	trace  *runtrace.Recorder
	// hook runs inside the kernel before chunk [lo, hi) is computed; an
	// error fails the chunk.
	hook func(lo int) error
}

// toySection is the toy campaign's section over trials [0, trials), in
// chunks of 16.
func toySection(trials int) Section {
	return Section{Name: "toy", Fingerprint: "fp", Chunking: Chunking{Size: 16, Trials: trials}}
}

func runToy(ctx context.Context, store *Store, o toyOpts) (*toyRun, error) {
	r := &toyRun{computed: map[int]int{}}
	c := Chunked[*toyChunk]{
		Exec:    Exec{Workers: o.workers, Mon: o.mon, Store: store, Trace: o.trace},
		Section: toySection(o.trials),
		Decode: func(lo, hi int, raw json.RawMessage) (*toyChunk, bool) {
			var ch toyChunk
			if json.Unmarshal(raw, &ch) != nil || ch.Lo != lo || ch.Hi != hi {
				return nil, false
			}
			return &ch, true
		},
		Kernel: func() func(lo, hi int) (*toyChunk, error) {
			return func(lo, hi int) (*toyChunk, error) {
				if o.hook != nil {
					if err := o.hook(lo); err != nil {
						return nil, err
					}
				}
				r.mu.Lock()
				r.computed[lo]++
				r.mu.Unlock()
				ch := &toyChunk{Lo: lo, Hi: hi}
				for i := lo; i < hi; i++ {
					ch.Sum += 1 / float64(i+3)
				}
				return ch, nil
			}
		},
		Fold: func(ci int, ch *toyChunk) bool {
			r.total += ch.Sum
			r.folded = append(r.folded, ci)
			return o.stopAt > 0 && r.total >= o.stopAt
		},
	}
	if o.enough > 0 {
		var seen float64
		c.Enough = func(ch *toyChunk) bool {
			seen += ch.Sum
			return seen >= o.enough
		}
	}
	return r, c.Run(ctx)
}

// TestChunkedFoldsInIndexOrder: chunks finish in a seeded random order
// across 8 workers, and Fold still sees chunks 0, 1, 2, ... exactly once
// each, with each chunk's own payload.
func TestChunkedFoldsInIndexOrder(t *testing.T) {
	const n = 200
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		delay := make([]time.Duration, n)
		for ci := range delay {
			delay[ci] = time.Duration(rng.Intn(1000)) * time.Microsecond
		}
		var folded []int
		c := Chunked[int]{
			Exec: Exec{Workers: 8}, Section: Section{Chunking: Chunking{Size: 1, Trials: n}},
			Kernel: func() func(lo, hi int) (int, error) {
				return func(lo, _ int) (int, error) {
					time.Sleep(delay[lo])
					return 3*lo + 1, nil
				}
			},
			Fold: func(ci, p int) bool {
				if p != 3*ci+1 {
					t.Errorf("seed %d: chunk %d folded with payload %d, want %d", seed, ci, p, 3*ci+1)
				}
				folded = append(folded, ci)
				return false
			},
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(folded) != n {
			t.Fatalf("seed %d: folded %d chunks, want %d", seed, len(folded), n)
		}
		for i, ci := range folded {
			if ci != i {
				t.Fatalf("seed %d: fold %d saw chunk %d (order %v)", seed, i, ci, folded)
			}
		}
	}
}

func TestChunkedWorkerInvariance(t *testing.T) {
	var wantTotal float64
	var wantFolded []int
	var wantSnap []byte
	for i, workers := range []int{1, 2, 7} {
		store := NewStore(nil)
		r, err := runToy(context.Background(), store,
			toyOpts{workers: workers, trials: 1000, stopAt: 2.5})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantTotal, wantFolded, wantSnap = r.total, r.folded, snap
			if n := len(r.folded); n < 2 || n >= 1000/16 {
				t.Fatalf("cutoff after %d chunks; want a stop strictly inside the campaign", n)
			}
			continue
		}
		if r.total != wantTotal || !reflect.DeepEqual(r.folded, wantFolded) {
			t.Errorf("workers=%d: folded %v total %v, want %v total %v", workers, r.folded, r.total, wantFolded, wantTotal)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("workers=%d: view differs from the 1-worker view", workers)
		}
	}
}

func TestChunkedCutoffPrunesSpeculativeTail(t *testing.T) {
	// No Enough, and the cutoff chunk is slow: the other workers race past
	// it computing chunks the fold will discard.
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	store := openLogStore(t, path)
	ref, err := runToy(context.Background(), nil, toyOpts{workers: 1, trials: 4000, stopAt: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := ref.folded[len(ref.folded)-1]
	r, err := runToy(context.Background(), store, toyOpts{workers: 4, trials: 4000, stopAt: 2.5,
		hook: func(lo int) error {
			if lo == cutoff*16 {
				time.Sleep(50 * time.Millisecond)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.computed) <= cutoff+1 {
		t.Fatalf("computed %d chunks, want speculation past cutoff %d", len(r.computed), cutoff)
	}
	if !reflect.DeepEqual(r.folded, ref.folded) {
		t.Fatalf("folded %v, want %v", r.folded, ref.folded)
	}
	got := store.Section(toySection(4000)).Indexes()
	if len(got) != cutoff+1 || got[len(got)-1] != cutoff {
		t.Errorf("view holds chunks %v, want exactly [0, %d]", got, cutoff)
	}
	// Only the view is pruned: the log keeps every computed chunk.
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if int(j.ChunkRecords) != len(r.computed) {
		t.Errorf("log holds %d chunk records, want all %d computed", j.ChunkRecords, len(r.computed))
	}
}

func TestChunkedCancelKeepsComputedChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := runToy(ctx, openLogStore(t, path), toyOpts{workers: 3, trials: 4000,
		hook: func(lo int) error {
			if lo >= 10*16 {
				cancel()
			}
			return nil
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	cp := openLogStore(t, path).Section(toySection(4000))
	stored := map[int]bool{}
	for _, ci := range cp.Indexes() {
		stored[ci] = true
	}
	for lo := range r.computed {
		if !stored[lo/16] {
			t.Errorf("computed chunk %d missing from the log after cancel", lo/16)
		}
	}
	if len(stored) == 0 || len(stored) >= 4000/16 {
		t.Errorf("log holds %d chunks, want a strict nonzero subset", len(stored))
	}
}

func TestChunkedKernelErrorFailsRun(t *testing.T) {
	const trials, bad = 4000, 20 // the kernel fails chunk 20 of 250
	boom := errors.New("boom")
	ref := NewStore(nil)
	want, err := runToy(context.Background(), ref, toyOpts{workers: 3, trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp.jsonl")
	r, err := runToy(context.Background(), openLogStore(t, path), toyOpts{workers: 3, trials: trials,
		hook: func(lo int) error {
			if lo == bad*16 {
				return boom
			}
			return nil
		}})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "section toy chunk 20:") {
		t.Fatalf("got %v, want the kernel error naming section toy chunk %d", err, bad)
	}
	if n := len(r.computed); n >= trials/16 {
		t.Errorf("computed %d chunks, want the run to stop short of all %d", n, trials/16)
	}
	if len(r.folded) > bad {
		t.Errorf("folded %d chunks, past the failed chunk %d", len(r.folded), bad)
	}

	// Every chunk computed before the failure stays in the log; the failed
	// one is not logged, and a resume without the fault computes it and
	// matches an uninterrupted run.
	store := openLogStore(t, path)
	stored := map[int]bool{}
	for _, ci := range store.Section(toySection(4000)).Indexes() {
		stored[ci] = true
	}
	for lo := range r.computed {
		if !stored[lo/16] {
			t.Errorf("computed chunk %d missing from the log", lo/16)
		}
	}
	if stored[bad] {
		t.Errorf("the failed chunk was logged")
	}
	got, err := runToy(context.Background(), store, toyOpts{workers: 3, trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.total != want.total || !bytes.Equal(snap, wantSnap) {
		t.Errorf("resumed total %v (view equal: %v), want %v", got.total, bytes.Equal(snap, wantSnap), want.total)
	}
	for lo, n := range got.computed {
		if stored[lo/16] {
			t.Errorf("logged chunk %d recomputed %d times on resume", lo/16, n)
		}
	}
}

func TestChunkedResumeSkipsStoredChunks(t *testing.T) {
	want, err := runToy(context.Background(), nil, toyOpts{workers: 1, trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp := openLogStore(t, path).Section(toySection(100))
	for ci := 0; ci < 3; ci++ {
		ch := &toyChunk{Lo: ci * 16, Hi: ci*16 + 16}
		for i := ch.Lo; i < ch.Hi; i++ {
			ch.Sum += 1 / float64(i+3)
		}
		if err := cp.Put(ci, ch); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Put(3, "not a chunk"); err != nil {
		t.Fatal(err)
	}
	r, err := runToy(context.Background(), openLogStore(t, path), toyOpts{workers: 2, trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if r.computed[ci*16] != 0 {
			t.Errorf("stored chunk %d was recomputed", ci)
		}
	}
	if r.computed[3*16] != 1 {
		t.Errorf("undecodable chunk 3 computed %d times, want 1", r.computed[3*16])
	}
	if r.total != want.total || !reflect.DeepEqual(r.folded, want.folded) {
		t.Errorf("resumed total %v folded %v, want %v %v", r.total, r.folded, want.total, want.folded)
	}
}

// TestChunkedResumeDropsNegativeIndex: a validly framed record of chunk -1,
// whose payload Decode would adopt for the span [-16, 0), never reaches the
// driver. The log's valid prefix ends at it, so a resume keeps the chunks
// before it, recomputes the chunk logged after it, and matches an
// uninterrupted run.
func TestChunkedResumeDropsNegativeIndex(t *testing.T) {
	want, err := runToy(context.Background(), nil, toyOpts{workers: 1, trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if _, err := runToy(context.Background(), openLogStore(t, path), toyOpts{workers: 1, trials: 48}); err != nil {
		t.Fatal(err)
	}
	s := openLogStore(t, path)
	raw := json.RawMessage(`{"Lo":-16,"Hi":0,"Sum":1}`)
	if err := s.Journal().AppendChunk("toy", "fp", -1, -16, 0, raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Section(toySection(100)).Put(3, &toyChunk{Lo: 48, Hi: 64}); err != nil {
		t.Fatal(err)
	}
	s.Journal().Close()

	r, err := runToy(context.Background(), openLogStore(t, path), toyOpts{workers: 2, trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if r.computed[ci*16] != 0 {
			t.Errorf("logged chunk %d was recomputed", ci)
		}
	}
	if r.computed[3*16] != 1 {
		t.Errorf("chunk 3, logged after the negative index, computed %d times, want 1", r.computed[3*16])
	}
	if r.total != want.total || !reflect.DeepEqual(r.folded, want.folded) {
		t.Errorf("resumed total %v folded %v, want %v %v", r.total, r.folded, want.total, want.folded)
	}
}

// TestChunkedEnoughBoundsSpeculation: a slow low chunk holds the fold back
// while 3 fast workers race ahead. Enough sees their completed chunks and
// proves the cutoff before the fold reaches it, so claims stop well short
// of the last chunk; the fold still equals the 1-worker fold.
func TestChunkedEnoughBoundsSpeculation(t *testing.T) {
	const trials, stopAt = 64000, 5.0 // 4000 chunks; the cutoff is chunk 23
	want, err := runToy(context.Background(), nil, toyOpts{workers: 1, trials: trials, stopAt: stopAt})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := want.folded[len(want.folded)-1]
	r, err := runToy(context.Background(), nil, toyOpts{workers: 4, trials: trials, stopAt: stopAt, enough: stopAt,
		hook: func(lo int) error {
			if lo == 16 {
				time.Sleep(50 * time.Millisecond)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.folded, want.folded) || r.total != want.total {
		t.Errorf("folded %v total %v, want %v total %v", r.folded, r.total, want.folded, want.total)
	}
	// The chunks up to the cutoff sum to stopAt, so Enough holds once the
	// completed chunks cover them; only chunks claimed by then run past it.
	last := 0
	for lo := range r.computed {
		last = max(last, lo/16)
	}
	if last > cutoff+64 {
		t.Errorf("claimed up to chunk %d of %d, want Enough to stop claims near the cutoff %d", last, trials/16, cutoff)
	}
}

// TestChunkedTelemetryAgrees: after one traced, monitored run, the
// Monitor's total, its status snapshot, a progress event and the trace
// attribution each count exactly the campaign's trials.
func TestChunkedTelemetryAgrees(t *testing.T) {
	const trials = 1000
	var events syncBuffer
	mon := NewMonitor(nil, 0)
	mon.SetEventWriter(&events)
	tr := runtrace.New()
	if _, err := runToy(context.Background(), nil, toyOpts{workers: 4, trials: trials, mon: mon, trace: tr}); err != nil {
		t.Fatal(err)
	}
	mon.report(time.Now())
	var ev struct {
		Type       string `json:"type"`
		TrialsDone int64  `json:"trials_done"`
	}
	if err := json.Unmarshal([]byte(events.String()), &ev); err != nil || ev.Type != "progress" {
		t.Fatalf("want one progress event, got %q (%v)", events.String(), err)
	}
	var traced int64
	for _, w := range runtrace.Analyze(tr).Workers {
		traced += w.Trials
	}
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"DoneTrials", mon.DoneTrials()},
		{"Status().TrialsDone", mon.Status().TrialsDone},
		{"progress event trials_done", ev.TrialsDone},
		{"trace attribution trials", traced},
	} {
		if c.got != trials {
			t.Errorf("%s = %d, want %d", c.name, c.got, trials)
		}
	}
}
