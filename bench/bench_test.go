package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"relaxfault/internal/scenario"
)

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// tinyDir writes the shipped workload specs, shrunk to a smoke-test budget,
// into a fresh benchmark directory with no golden digests.
func tinyDir(t *testing.T, bf *benchmarkFile) (dir string, names []string) {
	t.Helper()
	dir = t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "workloads"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		spec, err := os.ReadFile(filepath.Join("workloads", w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Decode(spec)
		if err != nil {
			t.Fatal(err)
		}
		switch sc.Kind {
		case scenario.KindCoverage:
			sc.Budget.FaultyNodes = 100
			sc.Coverage.Studies[0].Fault.FITScale = 1
			sc.Coverage.Studies[0].MaxNodes = 4096
		case scenario.KindPerf:
			sc.Budget.Instructions = 2000
			sc.Perf.Workloads = []string{"SP"}
		case scenario.KindReliability:
			if sc.Statistics == nil {
				sc.Budget.Nodes = 512
			} else {
				sc.Budget.Nodes = 4096
				sc.Budget.Replicas = 4
				sc.Statistics.MinTrials = 8192
			}
		}
		doc, err := sc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "workloads", w.Name+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, w.Name)
	}
	return dir, names
}

// TestSmoke runs one timed and one traced leg of every workload at a tiny
// budget, with one worker and with two: every metric BENCHMARK.json names is
// reported with its unit, every ledger residual is finite, and the output
// digests do not depend on the worker count.
func TestSmoke(t *testing.T) {
	bf := readBenchmark(t)
	dir, names := tinyDir(t, bf)
	digests := map[string][]string{}
	for _, workers := range []int{1, 2} {
		cfg := config{dir: dir, out: t.TempDir(), workloads: names, seed: 7,
			minLegs: 1, trace: true, workers: workers}
		doc, err := benchmark(context.Background(), cfg, bf)
		if err != nil {
			t.Fatal(err)
		}
		if !doc.Correct || doc.Failed != 0 {
			t.Fatalf("%d worker(s): %d of %d legs failed", workers, doc.Failed, doc.Attempted)
		}
		for _, wd := range doc.Workloads {
			for _, m := range bf.EndToEnd {
				if got, ok := wd.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", wd.Name, m.Name, got, m.Unit)
				}
			}
			for _, m := range bf.PerLayer {
				if got, ok := wd.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: per-layer %s = %+v, want unit %s", wd.Name, m.Name, got, m.Unit)
				}
			}
			if r := wd.Ledger.Residual; math.IsNaN(r) || math.IsInf(r, 0) {
				t.Errorf("%s: ledger residual %v", wd.Name, r)
			}
			if d, ok := digests[wd.Name]; ok && !slices.Equal(d, wd.Digests) {
				t.Errorf("%s: digests %v with 2 workers, %v with 1", wd.Name, wd.Digests, d)
			}
			digests[wd.Name] = wd.Digests
		}
	}
}

// TestShippedSpecs pins the workload specs: each is its preset with only the
// budget (and for the campaign the statistics block) changed, and its seed-7
// fingerprint is the one golden.json pins the digests of every leg for.
func TestShippedSpecs(t *testing.T) {
	bf := readBenchmark(t)
	var golden goldenFile
	if err := readJSON("golden.json", &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		spec, err := os.ReadFile(filepath.Join("workloads", w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Decode(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := scenario.Preset(sc.Name)
		if err != nil {
			t.Fatal(err)
		}
		p.Budget, p.Statistics, p.Seed = sc.Budget, sc.Statistics, sc.Seed
		want, _ := p.Canonical()
		if got, _ := sc.Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s: spec differs from preset %s beyond its budget:\n%s", w.Name, sc.Name, got)
		}
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if g := golden[w.Name]; g.Seed != *sc.Seed || g.Fingerprint != fp || len(g.Digests) < maxLegs {
			t.Errorf("%s: golden entry %+v, want seed %d fingerprint %s", w.Name, g, *sc.Seed, fp)
		}
	}
}
