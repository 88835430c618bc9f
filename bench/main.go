// Command bench is the repository benchmark. It runs four campaign
// workloads through the public calls the relaxfault CLI makes, checks every
// leg's output digest, and reports the end-to-end and per-layer metrics that
// BENCHMARK.json names, with a ledger that splits a traced leg's wall time
// by layer. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh                      # every workload, seed 7
//	bash bench/run.sh --workload perf --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh compare parent.json change.json
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"relaxfault/internal/harness"
)

// schema tags the results document.
const schema = "relaxfault-bench/v5"

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// workload names and the metric catalogue with units, directions and bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// goldenEntry pins one workload's output digests, by leg seed index, for a
// run at Seed of the spec whose fingerprint at that seed is Fingerprint.
type goldenEntry struct {
	Seed        uint64   `json:"seed"`
	Fingerprint string   `json:"fingerprint"`
	Digests     []string `json:"digests"`
}

type goldenFile map[string]goldenEntry

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type valueDoc struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampleDoc is an end-to-end metric: the median of the timed legs, with
// their range and every sample.
type sampleDoc struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

type workloadDoc struct {
	Name        string   `json:"name"`
	Scenario    string   `json:"scenario"`
	Fingerprint string   `json:"fingerprint"`
	Digests     []string `json:"digests"`
	Golden      bool     `json:"golden"`
	// Reference is the reference kernel's time around each timed leg;
	// timing samples are host-adjusted by refNominal over it.
	Reference []float64            `json:"reference_s"`
	Legs      int                  `json:"legs"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	EndToEnd  map[string]sampleDoc `json:"end_to_end"`
	PerLayer  map[string]valueDoc  `json:"per_layer,omitempty"`
	Ledger    *ledger              `json:"ledger,omitempty"`
}

// provenance records where and how the numbers were measured.
type provenance struct {
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`
	CPUModel      string  `json:"cpu_model"`
	LoadavgBefore string  `json:"loadavg_before"`
	LoadavgAfter  string  `json:"loadavg_after"`
	Version       string  `json:"version"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Legs          int     `json:"legs"`
	Start         string  `json:"start"`
}

type resultsDoc struct {
	Schema     string        `json:"schema"`
	Provenance provenance    `json:"provenance"`
	Correct    bool          `json:"correct"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Workloads  []workloadDoc `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "run one workload (default: all, interleaved)")
	seed := fs.Uint64("seed", 7, "workload seed")
	seconds := fs.Float64("seconds", 20, "timed-leg budget per workload, in seconds")
	trace := fs.Int("trace", 1, "1: add a traced leg and outside replays for the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	cfg := config{
		dir: "bench", out: filepath.Join("bench", "out"), seed: *seed, seconds: *seconds,
		minLegs: 3, warmup: 1, trace: *trace == 1,
		workers: min(runtime.NumCPU(), 4),
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, w := range bf.Workloads {
		if *wl == "" || *wl == w.Name {
			cfg.workloads = append(cfg.workloads, w.Name)
		}
	}
	if len(cfg.workloads) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wl)
		return 2
	}
	doc, err := benchmark(context.Background(), cfg, &bf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	bw := bufio.NewWriter(os.Stdout)
	printDoc(bw, doc, &bf)
	if *wl != "" {
		line := struct {
			Correct   bool                `json:"correct"`
			Attempted int                 `json:"attempted"`
			Failed    int                 `json:"failed"`
			Metrics   map[string]valueDoc `json:"metrics"`
		}{doc.Correct, doc.Attempted, doc.Failed, map[string]valueDoc{}}
		w := doc.Workloads[0]
		if cfg.trace {
			maps.Copy(line.Metrics, w.PerLayer)
		} else {
			for k, v := range w.EndToEnd {
				line.Metrics[k] = valueDoc{v.Value, v.Unit}
			}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(bw, "%s\n", b)
	}
	if err := bw.Flush(); err != nil {
		return 1
	}
	if !doc.Correct {
		return 1
	}
	return 0
}

// benchmark measures cfg's workloads and writes the results document and the
// traces to cfg.out.
func benchmark(ctx context.Context, cfg config, bf *benchmarkFile) (*resultsDoc, error) {
	golden := goldenFile{}
	if err := readJSON(filepath.Join(cfg.dir, "golden.json"), &golden); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	doc := &resultsDoc{Schema: schema, Provenance: provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers,
		CPUModel: cpuModel(), LoadavgBefore: loadavg(), Version: harness.BuildVersion(),
		Seed: cfg.seed, Seconds: cfg.seconds, Start: time.Now().UTC().Format(time.RFC3339),
	}}
	runs, err := measure(ctx, cfg, golden)
	if err != nil {
		return nil, err
	}
	doc.Provenance.LoadavgAfter = loadavg()

	units := map[string]string{}
	for _, m := range append(slices.Clone(bf.EndToEnd), bf.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, r := range runs {
		wd := workloadDoc{Name: r.w.name, Scenario: r.scenario, Fingerprint: r.fp, Digests: r.digests,
			Golden: r.goldenChecked, Reference: r.refs, Legs: r.legs, Failed: r.failed, Errors: r.errs,
			EndToEnd: map[string]sampleDoc{}}
		for _, m := range bf.EndToEnd {
			xs := r.samples(m.Name)
			if len(xs) == 0 {
				continue
			}
			wd.EndToEnd[m.Name] = sampleDoc{Value: median(xs), Unit: m.Unit,
				Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs), Samples: xs}
		}
		if r.traced != nil {
			pl, l := r.perLayer()
			wd.Ledger = l
			wd.PerLayer = map[string]valueDoc{}
			for k, v := range pl {
				u, ok := units[k]
				if !ok {
					return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", k)
				}
				wd.PerLayer[k] = valueDoc{v, u}
			}
			for _, m := range bf.PerLayer {
				if _, ok := pl[m.Name]; !ok {
					return nil, fmt.Errorf("BENCHMARK.json metric %s is not computed", m.Name)
				}
			}
		}
		doc.Attempted += wd.Legs
		doc.Failed += wd.Failed
		doc.Provenance.Legs += wd.Legs
		doc.Workloads = append(doc.Workloads, wd)
	}
	doc.Correct = doc.Failed == 0
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results.json"), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	return doc, nil
}

// printDoc prints every metric by name with its unit, and each traced leg's
// ledger.
func printDoc(w io.Writer, doc *resultsDoc, bf *benchmarkFile) {
	p := doc.Provenance
	fmt.Fprintf(w, "relaxfault bench (%s): seed %d, %d worker(s) on %d CPU(s) [%s], %s %s/%s, version %s, loadavg %s -> %s\n",
		doc.Schema, p.Seed, p.Workers, p.NumCPU, p.CPUModel, p.GoVersion, p.GOOS, p.GOARCH, p.Version,
		p.LoadavgBefore, p.LoadavgAfter)
	for _, wd := range doc.Workloads {
		check := "agreement across legs"
		if wd.Golden {
			check = "golden digest"
		}
		fmt.Fprintf(w, "\n== %s (%s, fingerprint %s): %d leg(s), %d failed, output checked by %s\n",
			wd.Name, wd.Scenario, wd.Fingerprint, wd.Legs, wd.Failed, check)
		fmt.Fprintf(w, "   timings host-adjusted: reference kernel median %.2f ms, nominal %.0f ms\n",
			1e3*median(wd.Reference), 1e3*refNominal)
		for _, e := range wd.Errors {
			fmt.Fprintf(w, "   FAILED %s\n", e)
		}
		fmt.Fprintf(w, "   %-34s %14s %14s %14s %4s\n", "end-to-end", "median", "min", "max", "n")
		for _, m := range bf.EndToEnd {
			if s, ok := wd.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g %14.6g %14.6g %4d\n", m.Name+" ["+m.Unit+"]", s.Value, s.Min, s.Max, s.N)
			}
		}
		if wd.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14s\n", "per-layer (traced leg)", "value")
		for _, m := range bf.PerLayer {
			fmt.Fprintf(w, "   %-34s %14.6g\n", m.Name+" ["+m.Unit+"]", wd.PerLayer[m.Name].Value)
		}
		printLedger(w, wd.Ledger)
	}
	fmt.Fprintf(w, "\noutput check: %d of %d leg(s) failed\n", doc.Failed, doc.Attempted)
}

func printLedger(w io.Writer, l *ledger) {
	fmt.Fprintf(w, "   ledger of the traced leg (wall %.4f s; est = split by the outside replays)\n", l.Wall)
	rows := []struct {
		depth int
		name  string
		sec   float64
	}{
		{0, "setup (decode, validate, lower, plan)", l.Setup},
		{0, "campaign.open", l.Open},
		{1, "seed", l.Seed},
		{1, "crosscheck", l.CrossCheck},
		{0, "run prelude (validate, lower, fingerprint)", l.Prelude},
		{0, "section resume.load", l.ResumeLoad},
		{0, "section engine window", l.Engine},
		{1, "busy", l.Busy},
		{2, "sample (est)", l.Sample},
		{2, "plan (est)", l.Plan},
		{2, "analyze (est)", l.Analyze},
		{1, "claim", l.Claim},
		{1, "checkpoint", l.Checkpoint},
		{1, "reduce-wait", l.ReduceWait},
		{1, "idle", l.Idle},
		{0, "section flush", l.Flush},
		{0, "section reduce", l.Reduce},
		{0, "campaign.seal", l.Seal},
		{0, "residual", l.Residual},
	}
	for _, r := range rows {
		label := strings.Repeat("  ", r.depth) + r.name
		fmt.Fprintf(w, "     %-44s %10.4f s %6.1f%%\n", label, r.sec, 100*ratio(r.sec, l.Wall))
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadavg is the 1, 5 and 15 minute load average of /proc/loadavg.
func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
