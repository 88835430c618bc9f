package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/scenario"
)

// updateEquiv regenerates the preset-vs-legacy golden files. The committed
// files were produced by the pre-scenario-refactor experiment functions, so
// the equivalence test pins the refactored registry+runner path to the
// legacy output byte for byte. Only regenerate them when the statistical
// content of an experiment deliberately changes.
var updateEquiv = flag.Bool("update-equiv", false, "regenerate testdata/equiv golden files")

// equivBudget and equivSeed are small enough to run the full suite in
// about a minute while still spanning multiple work chunks on the bigger
// experiments.
func equivBudget() scenario.Budget {
	return scenario.Budget{FaultyNodes: 500, Nodes: 2048, Replicas: 1, Instructions: 40_000}
}

const equivSeed = 11

// equivCase is one experiment id whose result JSON and checkpoint view bytes
// are pinned against the pre-refactor goldens.
type equivCase struct {
	name string
	// fourWorkers also runs the case with Workers=4 and compares against the
	// same golden, asserting worker-count independence through the scenario
	// path (the four ids the refactor issue names).
	fourWorkers bool
	run         func(context.Context, scenario.Exec) (any, error)
}

// shapedRun runs preset at the equivalence budget and seed with the given
// attachments and shapes its result, as an equivCase body.
func shapedRun[T any](preset string, shape func(*scenario.Result) T) func(context.Context, scenario.Exec) (any, error) {
	return func(ctx context.Context, ex scenario.Exec) (any, error) {
		return runShaped(ctx, preset, equivBudget(), equivSeed, ex, shape)
	}
}

func equivCases() []equivCase {
	return []equivCase{
		{"fig8", true, shapedRun("fig8", fig8Of)},
		{"fig9", false, shapedRun("fig9", fig9Of)},
		{"fig10", true, shapedRun("fig10", fig10Of)},
		{"fig11", false, shapedRun("fig11", fig11Of)},
		{"fig12", true, shapedRun("fig12", fig12Of)},
		{"fig13", false, shapedRun("fig12", fig13Of)},
		{"fig14", false, shapedRun("fig14", fig14Of)},
		{"fig15", true, shapedRun("fig15", fig15Of)},
		{"ablate", false, shapedRun("ablate", ablationsOf)},
		{"variants", false, shapedRun("variants", variantsOf)},
		{"prefetch", false, shapedRun("prefetch", prefetchOf)},
	}
}

// runEquivCase executes one case with the given worker count against a fresh
// checkpoint view and returns the result JSON and the view's snapshot.
func runEquivCase(t *testing.T, c equivCase, workers int) (result, snapshot []byte) {
	t.Helper()
	store := harness.NewStore(nil)
	res, err := c.run(context.Background(), scenario.Exec{Workers: workers, Store: store})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if snapshot, err = store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return result, snapshot
}

// TestPresetMatchesLegacyGolden pins every experiment id to the result JSON
// and checkpoint view bytes (Store.Snapshot) captured from the pre-refactor
// code: the scenario
// registry and generic runner must be an exact re-expression of the bespoke
// per-figure functions, not an approximation of them.
func TestPresetMatchesLegacyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Monte Carlo and performance experiment")
	}
	for _, c := range equivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			resPath := filepath.Join("testdata", "equiv", c.name+".result.json")
			ckptPath := filepath.Join("testdata", "equiv", c.name+".ckpt")
			if *updateEquiv {
				result, snapshot := runEquivCase(t, c, 1)
				if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resPath, result, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ckptPath, snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantResult, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update-equiv): %v", err)
			}
			wantSnap, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			workerCounts := []int{1}
			if c.fourWorkers {
				workerCounts = append(workerCounts, 4)
			}
			for _, w := range workerCounts {
				result, snapshot := runEquivCase(t, c, w)
				if !bytes.Equal(result, wantResult) {
					t.Errorf("workers=%d: result JSON differs from pre-refactor golden\ngot:  %.300s\nwant: %.300s",
						w, result, wantResult)
				}
				if !bytes.Equal(snapshot, wantSnap) {
					t.Errorf("workers=%d: checkpoint snapshot differs from pre-refactor golden (%d vs %d bytes)",
						w, len(snapshot), len(wantSnap))
				}
			}
		})
	}
}
