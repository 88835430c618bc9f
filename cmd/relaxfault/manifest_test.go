package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/scenario"
)

// seededScenario is a small spec that names its own seed.
const seededScenario = `{
  "schema": "relaxfault-scenario/v1",
  "name": "seeded",
  "kind": "reliability",
  "seed": 11,
  "budget": {"nodes": 9000, "replicas": 1},
  "fault": {"fit_scale": 10},
  "reliability": {"cells": [{"label": "no-repair", "way_limit": 0}]}
}
`

// TestRunSeedRecorded pins the seed a run records in its manifest, its
// manifest fingerprint and its run_start event: a -scenario run records
// the seed its resolved scenario ran (a spec file's own, unless -seed
// overrides it), and a run by experiment name records -seed.
func TestRunSeedRecorded(t *testing.T) {
	dir := t.TempDir()
	spec := writeScenario(t, dir, seededScenario)
	for _, tc := range []struct {
		name string
		args []string
		seed uint64
	}{
		{"seeded", []string{"-scenario", spec}, 11},
		{"seeded", []string{"-scenario", spec, "-seed", "3"}, 3},
		{"tab1", []string{"-seed", "3", "tab1"}, 3},
	} {
		man, events := filepath.Join(dir, "m.json"), filepath.Join(dir, "e.jsonl")
		os.Remove(events)
		_, stderr, code := runBin(t, append(tc.args, "-progress", "0", "-metrics", man, "-events", events)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", tc.args, code, stderr)
		}
		m := readManifest(t, man)
		if want := harness.Fingerprint("relaxfault-cli", "quick", tc.seed, []string{tc.name}); m.Seed != tc.seed || m.Fingerprint != want {
			t.Errorf("%v: manifest seed %d, fingerprint %s; want %d, %s", tc.args, m.Seed, m.Fingerprint, tc.seed, want)
		}
		if got := runStartSeed(t, events); got != tc.seed {
			t.Errorf("%v: run_start event seed %d, want %d", tc.args, got, tc.seed)
		}
	}
}

// TestSweepPointManifestsTimeTheirPoint runs a two-point sweep and checks
// each point's manifest against the run's. A point's manifest opens before
// its point runs, so its wall and CPU time are the point's own: positive
// and within the run's. Together the points take at least half the run's
// wall time, no more than its CPU time, and all of its trials.
func TestSweepPointManifestsTimeTheirPoint(t *testing.T) {
	man := filepath.Join(t.TempDir(), "sweep.json")
	_, stderr, code := runBin(t, "sweep", "-scenario", filepath.Join("..", "..", "examples", "hopper-ppr-budget.json"),
		"-set", "fault.fit_scale=1,10", "-progress", "0", "-metrics", man)
	if code != 0 {
		t.Fatalf("sweep exit %d\n%s", code, stderr)
	}
	run := readManifest(t, man)
	var wall, cpu float64
	var trials int64
	for i := range 2 {
		pm := readManifest(t, sweepManifestPath(man, i))
		if pm.WallSeconds <= 0 || pm.WallSeconds > run.WallSeconds || pm.CPUSeconds <= 0 || pm.CPUSeconds > run.CPUSeconds {
			t.Errorf("point %d: %.6f s wall, %.6f s CPU; want each positive and at most the run's %.6f s, %.6f s",
				i, pm.WallSeconds, pm.CPUSeconds, run.WallSeconds, run.CPUSeconds)
		}
		wall, cpu, trials = wall+pm.WallSeconds, cpu+pm.CPUSeconds, trials+pm.TrialsDone
	}
	if wall < run.WallSeconds/2 {
		t.Errorf("the points' wall time sums to %.6f s, under half the run's %.6f s", wall, run.WallSeconds)
	}
	if cpu > run.CPUSeconds+0.010 {
		t.Errorf("the points' CPU time sums to %.6f s, over the run's %.6f s", cpu, run.CPUSeconds)
	}
	if trials != run.TrialsDone {
		t.Errorf("the points ran %d trials, the run %d", trials, run.TrialsDone)
	}
}

// readManifest decodes the manifest at path.
func readManifest(t *testing.T, path string) harness.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m harness.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResolveRecordsEachScenarioOnce pins the manifest's scenario records
// to the scenarios a run executes, once each: fig12 and fig13 present one
// simulation, fig12's, and the static tab1 runs none, so the three
// experiments resolve to fig12's record alone. Nothing is simulated.
func TestResolveRecordsEachScenarioOnce(t *testing.T) {
	budget := scenario.DefaultBudget()
	pts, _, err := resolve(&options{seed: 7}, []string{"fig12", "fig13", "tab1"}, false, budget)
	if err != nil {
		t.Fatal(err)
	}
	fig12, err := presetAt("fig12", budget, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fig12.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	recs := records(pts)
	if len(recs) != 1 || recs[0].Name != "fig12" || recs[0].Fingerprint != want {
		var got []string
		for _, r := range recs {
			got = append(got, r.Name+"/"+r.Fingerprint)
		}
		t.Errorf("records %v, want exactly fig12/%s", got, want)
	}
	if pts[0].sc != pts[1].sc || pts[2].sc != nil {
		t.Error("fig12 and fig13 must share one scenario and tab1 run none")
	}
}

// runStartSeed returns the seed of the run_start event in the JSONL events
// file at path.
func runStartSeed(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "run_start" {
			return ev.Seed
		}
	}
	t.Fatalf("no run_start event in %s", path)
	return 0
}
