package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
)

// Engine is the shared parallel execution core of the Monte Carlo
// simulators: a worker pool over a range of chunk indexes, claimed through
// one atomic cursor (work stealing at chunk granularity — a fast worker
// simply claims more chunks). The engine deliberately has no opinion about
// what a chunk is; determinism is the caller's contract: chunk i must be a
// pure function of i (relsim derives chunk i's randomness from fork(i) of
// the root seed and reduces in chunk-index order), which makes results
// bitwise-independent of the worker count and of scheduling.
//
// The engine books each chunk once, in the Monitor's per-worker record
// (WorkerClaim / WorkerDone), which the progress lines, the watchdog and
// /debug/status all read, and, when tracing, as claim and chunk spans. The
// only obs metric it sets is the gauge harness.engine.workers, the resolved
// pool size of the current or last Run, once per Run. Of its Exec the
// engine reads Workers, Mon and Trace; only Chunked reads Store.
type Engine struct {
	Exec
}

// Exec is the execution environment of a run: one value carries it from
// the command line through the campaign, scenario and simulator layers to
// the engine. None of it affects results — the engine is bitwise
// independent of the worker count, the log only persists chunks, and
// tracing only observes — so no configuration fingerprint includes it.
type Exec struct {
	// Workers bounds parallelism; 0 or negative means GOMAXPROCS.
	Workers int
	// Mon, if non-nil, receives per-worker progress for the watchdog and
	// holds the live campaign log for its status snapshot.
	Mon *Monitor
	// Store, if non-nil, persists every chunk Chunked computes, under the
	// chunk's section, so a killed run resumes; log append errors degrade
	// to Mon warnings.
	Store *Store
	// Trace, if non-nil, records claim/chunk/reduce-wait spans per worker
	// (chunk granularity only — the per-trial path is untouched).
	Trace *runtrace.Recorder
}

// PoolWorkers resolves a configured worker count: n when positive,
// otherwise GOMAXPROCS. Callers that pre-size per-worker state use it to
// agree with Engine.Run on the pool size.
func PoolWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// poolSize is the harness.engine.workers gauge (see Engine).
var poolSize = obs.Default().Gauge("harness.engine.workers")

// Run executes chunks [0, nChunks) across the pool and blocks until every
// worker returns. work(worker, chunk) runs outside any lock; worker is a
// dense id in [0, pool size) so callers can index per-worker scratch state.
// It returns the number of trials the chunk completed (fed to the Monitor)
// and whether this worker should keep claiming chunks — returning false
// retires the worker, which is how Chunked stops the pool once the chunk
// prefix it needs is complete.
//
// Cancellation is observed between chunks: a cancelled ctx stops every
// worker at its next claim and Run returns ctx.Err(). In-flight chunks
// finish (and may checkpoint) first.
func (e *Engine) Run(ctx context.Context, nChunks int, work func(worker, chunk int) (trials int64, cont bool)) error {
	if nChunks <= 0 {
		return ctx.Err()
	}
	workers := PoolWorkers(e.Workers)
	if workers > nChunks {
		workers = nChunks
	}
	poolSize.Set(float64(workers))
	e.Mon.StartWorkers(workers)
	defer e.Mon.FinishWorkers()

	var next atomic.Int64
	var wg sync.WaitGroup
	// exits[w] is worker w's retirement time on the trace clock, written
	// before wg.Done and read only after wg.Wait.
	exits := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { exits[w] = e.Trace.Now() }()
			claimStart := e.Trace.Now()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= nChunks {
					return
				}
				e.Trace.Span(w, runtrace.SpanClaim, -1, 0, claimStart)
				e.Mon.WorkerClaim(w, k)
				chunkStart := e.Trace.Now()
				trials, cont := work(w, k)
				e.Trace.Span(w, runtrace.SpanChunk, k, trials, chunkStart)
				e.Mon.WorkerDone(w, trials)
				if !cont {
					return
				}
				claimStart = e.Trace.Now()
			}
		}(w)
	}
	wg.Wait()
	// Retired workers waited here for the pool to drain: the reduce-wait
	// spans expose straggler exposure per worker. Worker goroutines have
	// exited, so writing their tracks from here is race-free.
	if e.Trace.Enabled() {
		drained := e.Trace.Now()
		for w := 0; w < workers; w++ {
			if exits[w] < drained {
				e.Trace.Record(w, runtrace.SpanReduceWait, -1, 0, exits[w], drained)
			}
		}
	}
	return ctx.Err()
}
