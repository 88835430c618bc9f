// Package runtrace is the execution-tracing layer of the simulators: a
// low-overhead span recorder whose output explains where parallel wall time
// actually goes — chunk execution, claim overhead, checkpoint/journal fsync
// stalls, and straggler-induced reduce waits. (The name avoids colliding
// with internal/trace, the memory-workload generator.)
//
// The recorder deals only in spans: a named interval on a track, optionally
// tagged with a chunk/section index and a trial count. Tracks map onto the
// parallel engine's workers (track = worker id >= 0) plus three synthetic
// tracks for the main goroutine, checkpoint-store work, and the campaign
// log writer. Recording happens at chunk granularity and coarser — the
// per-trial hot path is never touched — so an instrumented campaign runs
// within a few percent of an untraced one, and a nil *Recorder makes every
// method a no-op so instrumentation can be unconditional (the same contract
// harness.Monitor and obs handles follow).
//
// Two consumers exist: WriteChrome renders the spans as Chrome trace_event
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing with one
// named thread per track, and Analyze folds them into a scheduler-
// attribution Report (per-worker busy/claim/fsync/reduce-wait/idle
// percentages, straggler chunks, a critical-path estimate) that the CLI
// embeds in the run manifest and publishes as runtrace.* metrics.
package runtrace

import (
	"sort"
	"sync"
	"time"
)

// Synthetic track ids. Worker tracks use the worker id itself (>= 0).
const (
	// TrackMain carries campaign/experiment/section-level spans recorded
	// by the main goroutine.
	TrackMain = -1
	// TrackCheckpoint carries checkpoint-store work outside a worker's
	// chunk. The log-backed store records none: its durability cost is the
	// journal track's appends.
	TrackCheckpoint = -2
	// TrackJournal carries journal appends (write + fsync, serialized by
	// the writer's mutex — the track directly shows fsync serialization).
	TrackJournal = -3
)

// Span names the engine and simulators record. The analyzer dispatches on
// these; everything else is informational detail in the exported trace.
const (
	// SpanChunk covers one work() invocation of the parallel engine: the
	// chunk's whole execution including any nested checkpoint span.
	SpanChunk = "chunk"
	// SpanClaim covers the inter-chunk engine overhead on a worker: from
	// finishing the previous chunk's work (bookkeeping, monitor, claim
	// cursor) to starting the next chunk.
	SpanClaim = "claim"
	// SpanCheckpoint covers a worker's synchronous durability stall: the
	// Checkpoint.Put call (log append + fsync, then the view update).
	// Nested inside SpanChunk.
	SpanCheckpoint = "checkpoint"
	// SpanReduceWait covers a retired worker waiting for the rest of the
	// pool to drain: from the worker's last chunk to engine completion.
	// Long spans here name the stragglers' victims.
	SpanReduceWait = "reduce-wait"
)

// Span is one recorded interval. Start and End are monotonic nanoseconds
// since the recorder's epoch (see Recorder.Epoch for the wall-clock
// anchor).
type Span struct {
	Track int    `json:"track"`
	Name  string `json:"name"`
	// Chunk is the chunk or section index the span covers, -1 when the
	// span is not chunk-scoped.
	Chunk  int   `json:"chunk"`
	Trials int64 `json:"trials,omitempty"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// Seconds returns the span's duration.
func (s Span) Seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Recorder collects spans across tracks in one append-only buffer. All
// methods are safe for concurrent use and safe on a nil receiver (no-ops),
// so instrumented code paths need no branches and tracing costs nothing
// when disabled. Spans arrive a few per chunk, so one mutex over one buffer
// is cheap even with every worker recording.
type Recorder struct {
	epoch time.Time // wall-clock anchor; time.Since(epoch) is monotonic
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose epoch is now.
func New() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Enabled reports whether spans are being recorded (r != nil); callers that
// would do real work to assemble a span can skip it when disabled.
func (r *Recorder) Enabled() bool { return r != nil }

// Epoch returns the wall-clock time of nanosecond 0.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Now returns monotonic nanoseconds since the epoch (0 on a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Record appends one span with explicit endpoints (tests and the engine's
// post-drain reduce-wait records use it; most call sites use Span).
func (r *Recorder) Record(trackID int, name string, chunk int, trials int64, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Track: trackID, Name: name, Chunk: chunk, Trials: trials, Start: start, End: end})
	r.mu.Unlock()
}

// Span records an interval from start (a prior Now() reading) to now.
func (r *Recorder) Span(trackID int, name string, chunk int, trials int64, start int64) {
	if r == nil {
		return
	}
	r.Record(trackID, name, chunk, trials, start, r.Now())
}

// Spans returns a stable snapshot of every recorded span, ordered by track
// (main, checkpoint, journal, then workers ascending), start time, end
// time, and name.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Track != out[b].Track {
			return trackOrder(out[a].Track) < trackOrder(out[b].Track)
		}
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].End != out[b].End {
			return out[a].End < out[b].End
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// trackOrder sorts synthetic tracks (main, checkpoint, journal) before the
// worker tracks.
func trackOrder(id int) int {
	switch id {
	case TrackMain:
		return 0
	case TrackCheckpoint:
		return 1
	case TrackJournal:
		return 2
	default:
		return 3 + id
	}
}
