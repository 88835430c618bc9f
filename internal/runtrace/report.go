package runtrace

import (
	"fmt"
	"sort"
	"strings"
)

// ReportSchema tags the scheduler-attribution report embedded in run
// manifests and bench artifacts.
const ReportSchema = "relaxfault-trace-report/v1"

// maxStragglers bounds the straggler list in a report.
const maxStragglers = 5

// WorkerAttribution is one worker's wall-time breakdown. The five
// categories partition the span-covered engine wall time exactly:
// busy + claim + checkpoint + reduce-wait + idle = wall.
type WorkerAttribution struct {
	Worker int   `json:"worker"`
	Chunks int   `json:"chunks"`
	Trials int64 `json:"trials"`

	// BusySeconds is chunk execution time minus nested checkpoint stalls.
	BusySeconds float64 `json:"busy_seconds"`
	// ClaimSeconds is inter-chunk engine overhead (bookkeeping, monitor,
	// claim cursor).
	ClaimSeconds float64 `json:"claim_seconds"`
	// CheckpointSeconds is synchronous durability stall inside chunks:
	// log append + fsync plus the view update (Checkpoint.Put).
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	// ReduceWaitSeconds is time spent retired, waiting for the rest of
	// the pool to drain (straggler exposure).
	ReduceWaitSeconds float64 `json:"reduce_wait_seconds"`
	// IdleSeconds is the uninstrumented remainder of the wall window.
	IdleSeconds float64 `json:"idle_seconds"`

	BusyPct       float64 `json:"busy_pct"`
	ClaimPct      float64 `json:"claim_pct"`
	CheckpointPct float64 `json:"checkpoint_pct"`
	ReduceWaitPct float64 `json:"reduce_wait_pct"`
	IdlePct       float64 `json:"idle_pct"`

	// LongestChunk/LongestChunkSeconds name the worker's slowest chunk.
	LongestChunk        int     `json:"longest_chunk"`
	LongestChunkSeconds float64 `json:"longest_chunk_seconds"`
}

// Straggler is one of the slowest chunks of the run.
type Straggler struct {
	Worker  int     `json:"worker"`
	Chunk   int     `json:"chunk"`
	Seconds float64 `json:"seconds"`
	Trials  int64   `json:"trials,omitempty"`
}

// Totals aggregates the attribution categories across all workers (each
// percentage is of total worker-seconds, i.e. wall time times pool size).
type Totals struct {
	BusyPct       float64 `json:"busy_pct"`
	ClaimPct      float64 `json:"claim_pct"`
	CheckpointPct float64 `json:"checkpoint_pct"`
	ReduceWaitPct float64 `json:"reduce_wait_pct"`
	IdlePct       float64 `json:"idle_pct"`
}

// Report is the post-run scheduler attribution: where every worker's wall
// time went, which chunks straggled, and how fast the run could have been
// with this work distribution (the critical-path estimate). The CLI embeds
// it in the run manifest as the "trace" block and prints it as a table.
type Report struct {
	Schema string `json:"schema"`
	// WallSeconds is the span-covered engine wall window: from the first
	// worker span's start to the last worker span's end.
	WallSeconds float64 `json:"wall_seconds"`
	Spans       int     `json:"spans"`

	Workers    []WorkerAttribution `json:"workers"`
	Totals     Totals              `json:"totals"`
	Stragglers []Straggler         `json:"stragglers,omitempty"`

	// CriticalPathSeconds estimates the run's lower bound under this work
	// distribution: the busiest worker's busy+claim+checkpoint time. Wall
	// time far above it means reduce-wait/idle (stragglers, serialization),
	// not work, dominates.
	CriticalPathSeconds float64 `json:"critical_path_seconds"`
}

// Analyze folds the recorded spans into a scheduler-attribution report.
// Only worker tracks (id >= 0) enter the attribution; the synthetic main/
// checkpoint/journal tracks are export-only detail. Nested spans are
// handled by construction: checkpoint spans are subtracted from the chunk
// spans that contain them, and unknown span names (e.g. perf.run) are
// informational and ignored.
func Analyze(r *Recorder) *Report {
	rep := &Report{Schema: ReportSchema}
	spans := r.Spans()
	rep.Spans = len(spans)

	var lo, hi int64
	first := true
	perWorker := make(map[int]*WorkerAttribution)
	var workerIDs []int
	for _, s := range spans {
		if s.Track < 0 {
			continue
		}
		if first || s.Start < lo {
			lo = s.Start
		}
		if first || s.End > hi {
			hi = s.End
		}
		first = false
		wa := perWorker[s.Track]
		if wa == nil {
			wa = &WorkerAttribution{Worker: s.Track, LongestChunk: -1}
			perWorker[s.Track] = wa
			workerIDs = append(workerIDs, s.Track)
		}
		sec := s.Seconds()
		switch s.Name {
		case SpanChunk:
			wa.Chunks++
			wa.Trials += s.Trials
			wa.BusySeconds += sec
			if sec > wa.LongestChunkSeconds {
				wa.LongestChunkSeconds = sec
				wa.LongestChunk = s.Chunk
			}
			rep.Stragglers = append(rep.Stragglers, Straggler{
				Worker: s.Track, Chunk: s.Chunk, Seconds: sec, Trials: s.Trials,
			})
		case SpanClaim:
			wa.ClaimSeconds += sec
		case SpanCheckpoint:
			// Nested inside a chunk span: move the stall out of busy.
			wa.CheckpointSeconds += sec
			wa.BusySeconds -= sec
		case SpanReduceWait:
			wa.ReduceWaitSeconds += sec
		}
	}
	if first {
		rep.Stragglers = nil
		return rep
	}
	rep.WallSeconds = float64(hi-lo) / 1e9

	sort.Ints(workerIDs)
	var totBusy, totClaim, totCkpt, totReduce, totIdle float64
	for _, id := range workerIDs {
		wa := perWorker[id]
		if wa.BusySeconds < 0 {
			wa.BusySeconds = 0
		}
		covered := wa.BusySeconds + wa.ClaimSeconds + wa.CheckpointSeconds + wa.ReduceWaitSeconds
		wa.IdleSeconds = rep.WallSeconds - covered
		if wa.IdleSeconds < 0 {
			wa.IdleSeconds = 0
		}
		if rep.WallSeconds > 0 {
			wa.BusyPct = 100 * wa.BusySeconds / rep.WallSeconds
			wa.ClaimPct = 100 * wa.ClaimSeconds / rep.WallSeconds
			wa.CheckpointPct = 100 * wa.CheckpointSeconds / rep.WallSeconds
			wa.ReduceWaitPct = 100 * wa.ReduceWaitSeconds / rep.WallSeconds
			wa.IdlePct = 100 * wa.IdleSeconds / rep.WallSeconds
		}
		if cp := wa.BusySeconds + wa.ClaimSeconds + wa.CheckpointSeconds; cp > rep.CriticalPathSeconds {
			rep.CriticalPathSeconds = cp
		}
		totBusy += wa.BusySeconds
		totClaim += wa.ClaimSeconds
		totCkpt += wa.CheckpointSeconds
		totReduce += wa.ReduceWaitSeconds
		totIdle += wa.IdleSeconds
		rep.Workers = append(rep.Workers, *wa)
	}
	if denom := rep.WallSeconds * float64(len(workerIDs)); denom > 0 {
		rep.Totals = Totals{
			BusyPct:       100 * totBusy / denom,
			ClaimPct:      100 * totClaim / denom,
			CheckpointPct: 100 * totCkpt / denom,
			ReduceWaitPct: 100 * totReduce / denom,
			IdlePct:       100 * totIdle / denom,
		}
	}

	sort.SliceStable(rep.Stragglers, func(a, b int) bool {
		return rep.Stragglers[a].Seconds > rep.Stragglers[b].Seconds
	})
	if len(rep.Stragglers) > maxStragglers {
		rep.Stragglers = rep.Stragglers[:maxStragglers]
	}
	return rep
}

// String renders the report as the table the CLI prints.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduler attribution (wall %.3fs, critical path %.3fs, %d worker(s), %d span(s))\n",
		rep.WallSeconds, rep.CriticalPathSeconds, len(rep.Workers), rep.Spans)
	if len(rep.Workers) == 0 {
		fmt.Fprintf(&b, "no worker spans recorded\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-6s %7s %9s %7s %7s %7s %8s %7s\n",
		"worker", "chunks", "trials", "busy%", "claim%", "fsync%", "reduce%", "idle%")
	for _, w := range rep.Workers {
		fmt.Fprintf(&b, "%-6d %7d %9d %7.1f %7.1f %7.1f %8.1f %7.1f\n",
			w.Worker, w.Chunks, w.Trials, w.BusyPct, w.ClaimPct, w.CheckpointPct, w.ReduceWaitPct, w.IdlePct)
	}
	fmt.Fprintf(&b, "%-6s %7s %9s %7.1f %7.1f %7.1f %8.1f %7.1f\n",
		"total", "", "", rep.Totals.BusyPct, rep.Totals.ClaimPct, rep.Totals.CheckpointPct,
		rep.Totals.ReduceWaitPct, rep.Totals.IdlePct)
	for i, s := range rep.Stragglers {
		if i == 0 {
			fmt.Fprintf(&b, "straggler chunks:\n")
		}
		fmt.Fprintf(&b, "  worker %d chunk %d: %.3fs (%d trials)\n", s.Worker, s.Chunk, s.Seconds, s.Trials)
	}
	return b.String()
}
