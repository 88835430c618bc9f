package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/scenario"
)

// goldenBudget is small enough that each experiment runs twice in seconds
// yet still spans several work chunks, so the 4-worker run genuinely
// interleaves.
func goldenBudget() scenario.Budget {
	return scenario.Budget{FaultyNodes: 600, Nodes: 2048, Replicas: 1, Instructions: 40_000}
}

// goldenShaped runs preset at the golden budget and seed 11 with ex
// attached and shapes its result, as a runGolden body.
func goldenShaped[T any](preset string, shape func(*scenario.Result) T) func(scenario.Exec) (any, error) {
	return func(ex scenario.Exec) (any, error) {
		return runShaped(context.Background(), preset, goldenBudget(), 11, ex, shape)
	}
}

// runGolden executes run with Workers=1 and Workers=4 on the same seed and
// asserts the result structs marshal to identical JSON and the checkpoint
// views are byte-identical. This is the engine's determinism contract:
// trials are claimed as fixed chunk indexes, every chunk derives its RNG
// stream from the root seed alone, and reduction happens in chunk order, so
// the worker count must be unobservable in every artifact.
func runGolden(t *testing.T, name string, run func(scenario.Exec) (any, error)) {
	t.Helper()
	results := make([][]byte, 2)
	snaps := make([][]byte, 2)
	for i, workers := range []int{1, 4} {
		store := harness.NewStore(nil)
		res, err := run(scenario.Exec{Workers: workers, Store: store})
		if err != nil {
			t.Fatalf("%s with %d workers: %v", name, workers, err)
		}
		if results[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = store.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("%s: sequential and 4-worker results differ:\nseq: %.200s\npar: %.200s",
			name, results[0], results[1])
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("%s: sequential and 4-worker checkpoint views differ (%d vs %d bytes)",
			name, len(snaps[0]), len(snaps[1]))
	}
}

// TestGoldenParallelMatchesSequential is the golden-model differential suite:
// a coverage study (fig10), a full-system reliability run (fig12), and a
// performance sweep (fig15) each run sequentially and sharded across 4
// workers, comparing every output byte.
func TestGoldenParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("golden differential runs each experiment twice")
	}
	t.Run("fig10", func(t *testing.T) { runGolden(t, "fig10", goldenShaped("fig10", fig10Of)) })
	t.Run("fig12", func(t *testing.T) { runGolden(t, "fig12", goldenShaped("fig12", fig12Of)) })
	t.Run("fig15", func(t *testing.T) { runGolden(t, "fig15", goldenShaped("fig15", fig15Of)) })
}
