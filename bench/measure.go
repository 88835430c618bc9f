package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"relaxfault/internal/harness"
	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

// setupReps is how many times a workload sets up before each timed leg;
// setup_s is the median over the run. Spreading the set-ups over the run,
// after the warm-up, keeps them off the cold heap of a fresh process.
const setupReps = 3

// maxLegs caps the timed legs of one workload, and so the scenario seeds a
// run can reach (golden.json pins that many digests at its seed).
const maxLegs = 48

// legSeed is the scenario seed of leg i of a run at seed: leg 0 runs the
// seed itself, and every further timed leg a new seed, so a run's medians
// average over as many independent campaigns as it has legs. Monte Carlo
// cost is heavy-tailed (a few nodes with huge faults take much of a
// coverage leg), so one campaign's cost varies too much from seed to seed.
func legSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// config is one benchmark invocation.
type config struct {
	// dir holds workloads/ and golden.json; out receives results and traces.
	dir, out  string
	workloads []string
	seed      uint64
	// seconds is the timed-leg budget per workload; at least minLegs and at
	// most maxLegs timed legs run. warmup untimed legs of leg seed 0 run
	// first.
	seconds float64
	minLegs int
	warmup  int
	// trace adds one traced leg of leg seed 0 per workload and the outside
	// replays, for the per-layer metrics.
	trace   bool
	workers int
}

// legMeasure is one checked leg and what it cost.
type legMeasure struct {
	out       *legOut
	wall, cpu float64 // seconds
	alloc     uint64  // bytes
	computed  int64   // trials the engine ran (Monitor)
	// scale is refNominal over the reference kernel's time around a timed
	// leg; it host-adjusts the leg's timings.
	scale float64
	// Journal counter deltas.
	fsyncs, journalBytes int64
}

// run is one workload's measurements.
type run struct {
	w        *workload
	seed     uint64
	scenario string // the preset the workload derives from
	fp       string // the scenario fingerprint at the run's seed
	// digests are the output digests by leg seed index: from golden.json
	// when it pins this spec at this seed, else from the first leg of that
	// index. goldenChecked says which.
	digests       []string
	goldenChecked bool
	legs          int
	failed        int
	errs          []string

	setup, lower []float64 // seconds; setup host-adjusted
	refs         []float64 // reference kernel seconds around each timed leg
	timed        []*legMeasure
	traced       *legMeasure
	untracedWall float64 // mean wall of the untraced legs around the traced one
	trace        *runtrace.Recorder
	replay       replayStats
}

// The journal's process-wide counters; a leg reports their deltas.
var (
	fsyncsCtr       = obs.Default().Counter("journal.fsyncs")
	journalBytesCtr = obs.Default().Counter("journal.bytes")
)

// leg runs leg seed i, measures it, and checks its output digest against the
// expected one for i. A failed leg is counted and returns nil.
func (r *run) leg(ctx context.Context, i int, tr *runtrace.Recorder) *legMeasure {
	runtime.GC()
	mon := harness.NewMonitor(nil, 0)
	f0, b0 := fsyncsCtr.Value(), journalBytesCtr.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := r.w.leg(ctx, legSeed(r.seed, i), tr, mon)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	r.legs++

	m := &legMeasure{out: out, wall: wall.Seconds(), cpu: cpu1 - cpu0,
		alloc: m1.TotalAlloc - m0.TotalAlloc, computed: mon.DoneTrials(),
		fsyncs: fsyncsCtr.Value() - f0, journalBytes: journalBytesCtr.Value() - b0}
	if err == nil && mon.Skipped() > 0 {
		err = fmt.Errorf("%d trial(s) skipped", mon.Skipped())
	}
	var d string
	if err == nil {
		d, err = out.digest()
	}
	if err == nil {
		for len(r.digests) <= i {
			r.digests = append(r.digests, "")
		}
		if r.digests[i] == "" {
			r.digests[i] = d
		} else if d != r.digests[i] {
			err = fmt.Errorf("output digest %s, want %s", d, r.digests[i])
		}
	}
	if err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("leg %d (seed index %d): %v", r.legs, i, err))
		return nil
	}
	return m
}

// measure runs every workload of cfg: warm-up legs, then timed legs, each
// after setupReps set-ups, interleaved across workloads until the time
// budget is spent, then with cfg.trace an untraced, a traced and another
// untraced leg of leg seed 0 and the outside replays.
func measure(ctx context.Context, cfg config, golden goldenFile) ([]*run, error) {
	var runs []*run
	for _, name := range cfg.workloads {
		spec, err := os.ReadFile(filepath.Join(cfg.dir, "workloads", name+".json"))
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, spec: spec, workers: cfg.workers,
			storeDir: filepath.Join(cfg.out, "store-"+name)}
		r := &run{w: w, seed: cfg.seed}
		sc, err := scenario.Decode(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		seed := cfg.seed
		sc.Seed = &seed
		if r.fp, err = sc.Fingerprint(); err != nil {
			return nil, err
		}
		r.scenario = sc.Name
		if g, ok := golden[name]; ok && g.Seed == cfg.seed && g.Fingerprint == r.fp {
			r.digests, r.goldenChecked = slices.Clone(g.Digests), true
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		for i := 0; i < cfg.warmup; i++ {
			r.leg(ctx, 0, nil)
		}
	}
	// Every timed leg and the set-ups before it are scaled by the reference
	// kernel times measured just before and after them.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(len(runs)) * float64(time.Second)))
	ref := reference(cfg.workers)
	for i := 0; i < maxLegs && (i < cfg.minLegs || time.Now().Before(deadline)); i++ {
		for _, r := range runs {
			setup, lower, err := r.setups()
			if err != nil {
				return nil, err
			}
			m := r.leg(ctx, i, nil)
			next := reference(cfg.workers)
			r.refs = append(r.refs, (ref+next)/2)
			scale := refNominal / ((ref + next) / 2)
			ref = next
			for _, x := range setup {
				r.setup = append(r.setup, x*scale)
			}
			r.lower = append(r.lower, lower...)
			if m != nil {
				m.scale = scale
				r.timed = append(r.timed, m)
			}
		}
	}
	if !cfg.trace {
		return runs, nil
	}
	for _, r := range runs {
		// Untraced legs of the same seed just before and after the traced
		// one give the tracing overhead without the drift of a slow host.
		before := r.leg(ctx, 0, nil)
		tr := runtrace.New()
		traced := r.leg(ctx, 0, tr)
		after := r.leg(ctx, 0, nil)
		if traced == nil || before == nil || after == nil {
			continue
		}
		r.trace, r.traced = tr, traced
		r.untracedWall = (before.wall + after.wall) / 2
		if err := r.trace.WriteChromeFile(filepath.Join(cfg.out, r.w.name+".trace.json")); err != nil {
			return nil, err
		}
		rs, err := replay(r.traced.out.low)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", r.w.name, err)
		}
		r.replay = rs
	}
	return runs, nil
}

// setups times setupReps set-ups of leg seed 0 on a freshly collected heap,
// returning each set-up's time and its Lower call's, in seconds.
func (r *run) setups() (setup, lower []float64, err error) {
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := r.w.setup(nil, r.seed, r.w.firstDivisor())
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", r.w.name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		lower = append(lower, s.lower.Seconds())
	}
	return setup, lower, nil
}

// samples returns the named quantity of every timed leg: the end-to-end
// metrics (timings host-adjusted), and the campaign's time to CI and
// cache-hit times. setup_s holds every set-up, host-adjusted.
func (r *run) samples(name string) []float64 {
	if name == "setup_s" {
		return r.setup
	}
	var out []float64
	for _, m := range r.timed {
		switch name {
		case "wall_s":
			out = append(out, m.wall*m.scale)
		case "cpu_s":
			out = append(out, m.cpu*m.scale)
		case "alloc_mb":
			out = append(out, float64(m.alloc)/1e6)
		case "time_to_ci_s":
			out = append(out, m.out.timeToCI.Seconds()*m.scale)
		case "hit_s":
			for _, h := range m.out.hitTimes {
				out = append(out, h.Seconds()*m.scale)
			}
		}
	}
	return out
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
