package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// minPairs is how many alternating parent/change runs a gain claim needs;
// with that many, the change must win nine in ten of them.
const minPairs = 10

// compareMain prints one row per workload and end-to-end metric for two
// files of results documents (each file one document, or several
// concatenated, one per run) and exits 1 when any row reads worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench compare parent.json change.json")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	parent, err := readDocs(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	change, err := readDocs(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if compare(os.Stdout, &bf, parent, change) {
		return 1
	}
	return 0
}

// readDocs reads every results document in path.
func readDocs(path string) ([]resultsDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []resultsDoc
	dec := json.NewDecoder(f)
	for {
		var d resultsDoc
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no results document", path)
	}
	return docs, nil
}

// values are one side's values of a workload's metric: each run's median,
// or the samples of the single run when there is one.
func values(docs []resultsDoc, workload, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, w := range d.Workloads {
			if s, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				if len(docs) == 1 {
					return s.Samples
				}
				out = append(out, s.Value)
			}
		}
	}
	return out
}

// quartiles are the first and third quartiles by the exclusive method of
// Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// verdict applies the choosing-metrics rules to one metric. worse is the
// change's relative move in the worse direction. A gain needs at least
// minPairs runs a side, nine in ten pairwise wins, and a median difference
// beyond the parent's quartile spread. A parent spread wider than the bound
// leaves the row unresolved unless every change value beats every parent
// value.
func verdict(parent, change []float64, lowerBetter bool, bound float64) (worse float64, v string) {
	better := func(c, p float64) bool { return (c < p) == lowerBetter && c != p }
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	worse = (cm - pm) / pm
	if !lowerBetter {
		worse = -worse
	}
	if pairs := min(len(parent), len(change)); pairs >= minPairs {
		wins := 0
		for i := 0; i < pairs; i++ {
			if better(change[i], parent[i]) {
				wins++
			}
		}
		diff := cm - pm
		if 10*wins >= 9*pairs && better(cm, pm) && max(diff, -diff) > q3-q1 {
			return worse, "better"
		}
	}
	if (q3-q1)/pm > bound {
		for _, c := range change {
			for _, p := range parent {
				if !better(c, p) {
					return worse, "unresolved"
				}
			}
		}
		return worse, "better"
	}
	if worse > bound {
		return worse, "worse"
	}
	return worse, "no change"
}

// compare prints the comparison table and reports whether any row is worse.
func compare(w io.Writer, bf *benchmarkFile, parent, change []resultsDoc) bool {
	fmt.Fprintf(w, "parent: %d run(s), change: %d run(s)\n", len(parent), len(change))
	fmt.Fprintf(w, "%-12s %-10s %30s %30s %8s %6s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "worse", "bound", "verdict")
	anyWorse := false
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-12s %-10s %30s\n", wl.Name, m.Name, "missing")
				continue
			}
			worse, v := verdict(p, c, m.Better == "lower", m.Bound)
			anyWorse = anyWorse || v == "worse"
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-12s %-10s %30s %30s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(p), pq1, pq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(c), cq1, cq3),
				100*worse, 100*m.Bound, v)
		}
	}
	return anyWorse
}
