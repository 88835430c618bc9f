package experiments

// The scheduling differential suite: every preset id runs under a matrix of
// worker counts, with and without a run trace recorder, and every observable
// artifact — result JSON, the checkpoint view's bytes, and the logged chunk
// digests and spans — must be identical to the sequential untraced
// baseline. This
// is the end-to-end statement of the chunked driver's determinism contract:
// neither parallelism nor tracing is observable in any output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

// diffVariant is one point of the scheduling matrix.
type diffVariant struct {
	workers int
	traced  int // 1 attaches a run trace recorder
}

// diffVariants crosses worker counts with tracing off and on. Subtest ids
// keep the wNbM form of the retired trial-batch axis so they stay stable;
// the second digit is now the tracing axis.
var diffVariants = []diffVariant{
	{2, 0}, {2, 1},
	{4, 0}, {4, 1},
	{7, 0}, {7, 1},
}

// runDifferential executes one preset under the given variant against a
// fresh campaign log, and returns the three artifacts the matrix compares:
// the marshalled result, the checkpoint view's snapshot, and the log's
// latest chunk records (digest + trial range per (section, chunk)).
func runDifferential(t *testing.T, c equivCase, v diffVariant) (result, snapshot []byte, chunks map[journal.ChunkKey]journal.Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), c.name+".jsonl")
	ex := scenario.Exec{Workers: v.workers}
	if v.traced == 1 {
		ex.Trace = runtrace.New()
	}
	store, err := harness.OpenStore(path, journal.Record{Seed: equivSeed})
	if err != nil {
		t.Fatal(err)
	}
	ex.Store = store
	res, err := c.run(context.Background(), ex)
	if err != nil {
		t.Fatalf("%s workers=%d traced=%d: %v", c.name, v.workers, v.traced, err)
	}
	jw := store.Journal()
	if err := jw.Seal(journal.StatusComplete); err != nil {
		t.Fatal(err)
	}
	jw.Close()
	if result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if snapshot, err = store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return result, snapshot, j.LatestChunks()
}

// TestPresetSchedulingDifferential runs every preset under the worker/trace
// matrix and compares each variant to the sequential untraced baseline.
//
// Log comparison: a variant's workers may speculatively compute chunks past
// a coverage study's stopping cutoff; those are logged before the view
// prunes them, so logs legitimately differ in which chunks they mention
// (and their record order follows completion). Chunk *content* is
// deterministic per index, however, so every chunk key the baseline logged
// must appear in the variant's log with an identical digest and trial
// range — and the views (which hold exactly the reduced prefix) must match
// byte for byte.
func TestPresetSchedulingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset once per worker/trace matrix point")
	}
	for _, c := range equivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			baseRes, baseSnap, baseChunks := runDifferential(t, c, diffVariant{workers: 1})
			// Perf-only presets checkpoint nothing; every Monte Carlo
			// preset must journal chunks or the digest comparison below
			// is vacuous.
			perfOnly := c.name == "fig15" || c.name == "prefetch"
			if len(baseChunks) == 0 && !perfOnly {
				t.Fatalf("%s: baseline journaled no chunks", c.name)
			}
			for _, v := range diffVariants {
				v := v
				t.Run(fmt.Sprintf("w%db%d", v.workers, v.traced), func(t *testing.T) {
					res, snap, chunks := runDifferential(t, c, v)
					if !bytes.Equal(res, baseRes) {
						t.Errorf("result JSON differs from sequential baseline:\nbase: %.200s\ngot:  %.200s", baseRes, res)
					}
					if !bytes.Equal(snap, baseSnap) {
						t.Errorf("checkpoint view differs from sequential baseline (%d vs %d bytes)", len(baseSnap), len(snap))
					}
					for key, want := range baseChunks {
						got, ok := chunks[key]
						if !ok {
							t.Errorf("chunk %v journaled by the baseline is missing", key)
							continue
						}
						if got.Digest != want.Digest || got.TrialLo != want.TrialLo || got.TrialHi != want.TrialHi {
							t.Errorf("chunk %v journal record differs:\nbase: digest=%s trials=[%d,%d)\ngot:  digest=%s trials=[%d,%d)",
								key, want.Digest, want.TrialLo, want.TrialHi, got.Digest, got.TrialLo, got.TrialHi)
						}
					}
					// Speculative extras must still be the deterministic
					// per-index payloads: any key both logs mention was
					// already checked above; keys only the variant logged
					// have no baseline digest to compare, but the
					// byte-identical view proves none of them leaked into
					// the final state.
				})
			}
		})
	}
}
