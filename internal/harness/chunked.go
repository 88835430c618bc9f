package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"relaxfault/internal/runtrace"
)

// Chunking splits a campaign's trial index space [0, Trials) into fixed
// chunks of Size trials, the last one possibly short. It is the one place
// chunk counts and spans are computed, so the drivers, the journal
// replayers, and campaign seeding agree on every chunk's trial range by
// construction.
type Chunking struct {
	Size   int `json:"chunk_size"`
	Trials int `json:"total_trials"`
}

// Section is one campaign section: the checkpoint/journal section name, the
// fingerprint of the configuration that computes it, and its chunk split.
// It is one value from lowering to the log: the simulators derive it, the
// driver runs it, the view logs each chunk with its span, and a store entry
// records it (its JSON is the entry metadata's section record).
type Section struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Chunking
}

// Count returns the number of chunks.
func (c Chunking) Count() int { return (c.Trials + c.Size - 1) / c.Size }

// Span returns chunk ci's trial range [lo, hi).
func (c Chunking) Span(ci int) (lo, hi int) {
	lo = ci * c.Size
	return lo, max(lo, min(lo+c.Size, c.Trials))
}

// Chunked drives one fixed-index chunked campaign on an Engine: chunk ci
// covers the trials Section.Span(ci), its payload P is a pure function of
// that span, and payloads fold into the caller's accumulator in strict
// chunk-index order. Results are therefore independent of the worker count
// and of scheduling, which is what lets a killed run resume from its
// checkpoint with bitwise-identical output.
//
// Run owns the whole lifecycle: it adopts decodable chunks from the
// checkpoint section (recomputing undecodable ones), computes the rest on
// the engine, folds each completed chunk once every lower chunk has folded,
// logs every computed chunk with its trial span, and — once Fold reports
// the cutoff — prunes the speculative tail so the final view holds exactly
// the folded prefix.
// It records the resume.load and reduce spans on the main trace track and
// one checkpoint span per logged chunk.
//
// Fold and Enough are called one at a time under the driver's lock, so they
// may share state without further locking; they must not block.
type Chunked[P any] struct {
	// Exec configures the engine; its Store, if non-nil, persists chunks
	// under Section.
	Exec
	Section Section

	// Decode adopts a checkpointed chunk covering [lo, hi); false
	// recomputes it. It may account the adopted chunk (counters).
	Decode func(lo, hi int, raw json.RawMessage) (P, bool)
	// Kernel returns a new per-worker chunk function computing trials
	// [lo, hi). Each worker calls only its own, so it may keep
	// unsynchronised scratch; it runs outside every lock. An error fails
	// the run, and the worker whose kernel returned it claims nothing more.
	Kernel func() func(lo, hi int) (P, error)
	// Fold accumulates chunk ci in index order and reports whether ci is
	// the cutoff: the last chunk the result needs. Chunks after the cutoff
	// are never folded.
	Fold func(ci int, p P) (stop bool)
	// Enough, if set, sees every completed chunk in completion order and
	// reports once those chunks alone prove the cutoff is no later than the
	// highest of them; claims past that bound are refused. It is set where
	// the chunk space is only a worst-case cap (coverage studies), so Run
	// announces the trials left to compute to Mon exactly when it is nil.
	Enough func(p P) bool
}

// Run executes the campaign. On cancellation every computed chunk stays in
// the log (a resumed run reuses them all) and ctx's error is returned. A
// kernel error stops all claiming: chunks in flight finish and are logged,
// and the first error is returned naming its section and chunk. On success
// every chunk up to the cutoff (or all of them) has been folded.
func (c *Chunked[P]) Run(ctx context.Context) error {
	n := c.Section.Count()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cp := c.Store.Section(c.Section)

	// Reduction and bound state, all under mu; chunk computation and
	// persistence run outside the lock.
	var mu sync.Mutex
	cutoff := -1 // chunk where Fold stopped
	bound := -1  // proven upper bound on the cutoff (-1 = unknown)
	maxDone, enough := -1, false
	// A completed chunk waits in pending until every lower chunk has
	// folded; frontier is the next chunk to fold. Chunks past the cutoff
	// drain through pending but are never folded.
	frontier := 0
	pending := make(map[int]P)
	var foldErr, kernelErr error
	complete := func(ci int, p P) {
		if _, dup := pending[ci]; dup || ci < frontier || ci >= n {
			if foldErr == nil {
				foldErr = fmt.Errorf("chunk %d completed twice or outside [0, %d)", ci, n)
			}
			return
		}
		pending[ci] = p
		for p, ok := pending[frontier]; ok; p, ok = pending[frontier] {
			delete(pending, frontier)
			if cutoff < 0 && c.Fold(frontier, p) {
				cutoff = frontier
			}
			frontier++
		}
		maxDone = max(maxDone, ci)
		if c.Enough != nil && !enough {
			enough = c.Enough(p)
		}
		if cutoff >= 0 {
			bound = cutoff
		} else if bound < 0 && enough {
			bound = maxDone
		}
	}

	resumeStart := c.Trace.Now()
	stored := cp.Indexes()
	have := make([]bool, n)
	for _, ci := range stored {
		if ci >= n {
			continue
		}
		raw, _ := cp.Get(ci)
		lo, hi := c.Section.Span(ci)
		if p, ok := c.Decode(lo, hi, raw); ok {
			complete(ci, p)
			have[ci] = true
		}
	}
	if len(stored) > 0 {
		c.Trace.Span(runtrace.TrackMain, "resume.load", -1, 0, resumeStart)
	}
	var todo []int
	var expect int64
	for ci := 0; ci < n && (bound < 0 || ci <= bound); ci++ {
		if !have[ci] {
			todo = append(todo, ci)
			lo, hi := c.Section.Span(ci)
			expect += int64(hi - lo)
		}
	}
	if c.Enough == nil {
		c.Mon.Expect(expect)
	}

	kernels := make([]func(lo, hi int) (P, error), PoolWorkers(c.Workers))
	eng := Engine{c.Exec}
	eng.Run(ctx, len(todo), func(w, k int) (int64, bool) {
		ci := todo[k]
		mu.Lock()
		ok := bound < 0 || ci <= bound
		mu.Unlock()
		if !ok {
			// Past the proven bound; claims ascend, so every later claim is
			// too: retire the worker.
			return 0, false
		}
		if kernels[w] == nil {
			kernels[w] = c.Kernel()
		}
		lo, hi := c.Section.Span(ci)
		p, err := kernels[w](lo, hi)
		if err != nil {
			mu.Lock()
			if kernelErr == nil {
				kernelErr = fmt.Errorf("harness: section %s chunk %d: %w", c.Section.Name, ci, err)
			}
			mu.Unlock()
			cancel() // stops every claim
			return 0, false
		}
		mu.Lock()
		complete(ci, p)
		mu.Unlock()
		ckptStart := c.Trace.Now()
		if err := cp.Put(ci, p); err != nil {
			c.Mon.Warnf("%v (run continues without this chunk persisted)", err)
		}
		c.Trace.Span(w, runtrace.SpanCheckpoint, ci, 0, ckptStart)
		return int64(hi - lo), true
	})
	if kernelErr != nil {
		return kernelErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	reduceStart := c.Trace.Now()
	end := n - 1
	if cutoff >= 0 {
		end = cutoff
	}
	// The fold aggregated exactly chunks [0, end]; dropping the speculative
	// tail from the view too makes it byte-identical for any worker count.
	cp.PruneAbove(end)
	if foldErr != nil {
		return fmt.Errorf("harness: internal error: %w", foldErr)
	}
	if frontier <= end {
		return fmt.Errorf("harness: internal error: reduced %d of %d chunks", frontier, end+1)
	}
	c.Trace.Span(runtrace.TrackMain, "reduce", -1, 0, reduceStart)
	return nil
}
