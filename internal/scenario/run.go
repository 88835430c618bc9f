package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"relaxfault/internal/harness"
	"relaxfault/internal/perf"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/trace"
)

// Exec is a run's execution environment (harness.Exec). None of it
// affects results, so none of it lives in the Scenario spec.
type Exec = harness.Exec

// PerfUnit is one (workload, prefetch degree) outcome: the weighted
// speedup and full simulation result per lock configuration, plus the
// alone-IPC baselines the speedups were measured against.
type PerfUnit struct {
	Workload       string
	PrefetchDegree int
	// Tech names the memory technology the unit ran on.
	Tech  string
	Locks []LockSpec
	// Speedups[i] and Results[i] correspond to Locks[i]; Speedups[0] is
	// the unlocked baseline.
	Speedups []float64
	Results  []*perf.Result
	Alone    []float64
	// RelPower[i] is DRAM dynamic power under Locks[i] as a percentage of
	// the unlocked baseline (RelPower[0] is 100 by construction), charged
	// with the technology's energy table.
	RelPower []float64
}

// Result is a scenario's outcome: one entry per study, cell, or perf unit,
// in spec order, alongside the resolved spec and its fingerprint.
type Result struct {
	Scenario    *Scenario
	Fingerprint string

	Coverage    []*relsim.CoverageResult
	Reliability []*relsim.Result
	Perf        []PerfUnit
}

// RunCtx lowers (which validates) and executes the scenario on the shared
// simulation engines. Coverage studies and reliability cells run in spec
// order on the checkpointing Monte Carlo engine; the perf section runs
// each perf.Run of its units as one chunk of the sharded work engine and
// folds the weighted speedups in unit order (runPerf), so output is
// identical to a sequential sweep.
func RunCtx(ctx context.Context, sc *Scenario, ex Exec) (*Result, error) {
	low, err := sc.Lower()
	if err != nil {
		return nil, err
	}
	fp, err := sc.Fingerprint()
	if err != nil {
		return nil, err
	}
	out := &Result{Scenario: sc, Fingerprint: fp}

	scenarioStart := ex.Trace.Now()
	for i := range low.Coverage {
		cfg := low.Coverage[i]
		cfg.Exec = ex
		sectionStart := ex.Trace.Now()
		res, err := relsim.CoverageStudyCtx(ctx, cfg)
		ex.Trace.Span(runtrace.TrackMain, "section:coverage", i, 0, sectionStart)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: study %d: %w", sc.Name, i, err)
		}
		out.Coverage = append(out.Coverage, res)
	}
	for i := range low.Reliability {
		cfg := low.Reliability[i]
		cfg.Exec = ex
		sectionStart := ex.Trace.Now()
		res, err := relsim.RunCtx(ctx, cfg)
		ex.Trace.Span(runtrace.TrackMain, "section:reliability", i, 0, sectionStart)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: cell %d (%s): %w", sc.Name, i, sc.Reliability.Cells[i].Label, err)
		}
		out.Reliability = append(out.Reliability, &res)
	}
	if len(low.Perf) > 0 {
		sectionStart := ex.Trace.Now()
		units, err := runPerf(ctx, low.Perf, ex)
		ex.Trace.Span(runtrace.TrackMain, "section:perf", -1, 0, sectionStart)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		out.Perf = units
	}
	ex.Trace.Span(runtrace.TrackMain, "scenario:"+sc.Name, -1, 0, scenarioStart)
	return out, nil
}

// perfRun is one perf.Run of a perf section: the unit's shared run under
// Locks[lock] when thread < 0, otherwise the alone run of that thread on
// the unlocked system. threads are the cores it simulates.
type perfRun struct {
	unit, lock, thread int
	threads            []trace.ThreadParams
}

// runPerf runs every perf.Run of the units as its own chunk on the sharded
// engine: per unit, one shared run per lock and one alone run per thread.
// The runs with the most threads are claimed first, so the short alone runs
// fill the tail. Each run writes its own slot, and the fold then computes,
// unit by unit, the weighted speedup under every lock against the alone-IPC
// denominators (Equation 2, the methodology of Figure 15) and the relative
// DRAM power against the unlocked baseline; so the output is identical to
// a sequential sweep. Each worker runs its chunks on its own perf.Machine,
// which resets its memory system and cores in place between runs.
func runPerf(ctx context.Context, units []PerfUnitConfig, ex Exec) ([]PerfUnit, error) {
	outs := make([]PerfUnit, len(units))
	var runs []perfRun
	for u, uc := range units {
		th := uc.Workload.Threads
		outs[u] = PerfUnit{
			Workload:       uc.Workload.Name,
			PrefetchDegree: uc.PrefetchDegree,
			Tech:           uc.Tech,
			Locks:          uc.Locks,
			Speedups:       make([]float64, len(uc.Locks)),
			Results:        make([]*perf.Result, len(uc.Locks)),
			Alone:          make([]float64, len(th)),
			RelPower:       make([]float64, len(uc.Locks)),
		}
		for l := range uc.Locks {
			runs = append(runs, perfRun{unit: u, lock: l, thread: -1, threads: th})
		}
		for t := range th {
			runs = append(runs, perfRun{unit: u, thread: t, threads: th[t : t+1]})
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return len(runs[i].threads) > len(runs[j].threads) })
	errs := make([]error, len(runs))
	machines := make([]perf.Machine, harness.PoolWorkers(ex.Workers))
	eng := harness.Engine{Exec: ex}
	runErr := eng.Run(ctx, len(runs), func(w, k int) (int64, bool) {
		r := runs[k]
		cfg := units[r.unit].Base
		// Locks[0], the alone runs' system, is the unlocked baseline.
		lock := units[r.unit].Locks[r.lock]
		cfg.LockWays, cfg.LockBytes = lock.Ways, lock.Bytes
		// The run records its perf.run span on the executing worker's
		// track, nested under the engine's chunk span.
		cfg.Trace, cfg.TraceTrack = ex.Trace, w
		res, err := machines[w].Run(cfg, r.threads)
		switch {
		case err != nil:
			errs[k] = err
		case r.thread < 0:
			outs[r.unit].Results[r.lock] = res
		default:
			outs[r.unit].Alone[r.thread] = res.Cores[0].IPC
		}
		return 1, true
	})
	if runErr != nil {
		return nil, runErr
	}
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", units[runs[k].unit].Workload.Name, err)
		}
	}
	for u := range outs {
		o := &outs[u]
		base := o.Results[0]
		for l, res := range o.Results {
			o.Speedups[l] = perf.SpeedupOf(res, o.Alone)
			o.RelPower[l] = 100
			if l > 0 {
				o.RelPower[l] = units[u].Energy.RelativeDynamicPower(res.Ops, base.Ops, res.Seconds, base.Seconds)
			}
		}
	}
	return outs, nil
}

// String renders the result generically: coverage curves, reliability
// cells, or weighted speedups as plain tables. Preset experiments have
// richer figure-specific presentations in internal/experiments; this is
// the output of user-supplied scenario files and sweeps.
func (r *Result) String() string {
	var b strings.Builder
	sc := r.Scenario
	fmt.Fprintf(&b, "Scenario %s (%s, seed %d, fingerprint %s)\n", sc.Name, sc.Kind, *sc.Seed, r.Fingerprint)
	if sc.Description != "" {
		fmt.Fprintf(&b, "%s\n", sc.Description)
	}
	for i, cov := range r.Coverage {
		st := sc.Coverage.Studies[i]
		label := st.Label
		if label == "" {
			label = fmt.Sprintf("study %d", i)
		}
		fmt.Fprintf(&b, "[%s] faulty nodes: %d/%d (%.1f%%)\n",
			label, cov.FaultyNodes, cov.TotalNodes, 100*cov.FaultyFraction)
		fmt.Fprintf(&b, "%-28s %5s %9s %14s\n", "planner", "ways", "coverage", "p90 capacity")
		for _, c := range cov.Curves {
			fmt.Fprintf(&b, "%-28s %5d %8.1f%% %13.0fB\n",
				c.Planner, c.WayLimit, 100*c.Coverage(), c.CapacityQuantile(0.90))
		}
	}
	if len(r.Reliability) > 0 {
		fmt.Fprintf(&b, "%-24s %12s %10s %10s %12s\n", "cell", "faultyNodes", "DUEs", "SDCs", "replacements")
		for i, res := range r.Reliability {
			fmt.Fprintf(&b, "%-24s %12.0f %10.4f %10.6f %12.4f\n",
				sc.Reliability.Cells[i].Label, res.FaultyNodes, res.DUEs, res.SDCs, res.Replacements)
			if e := res.Estimator; e != nil {
				fmt.Fprintf(&b, "%-24s   %s: %d/%d trials, DUE +-%.4f, SDC +-%.6f, ESS %.0f",
					"", e.Name, e.Trials, e.BudgetTrials, e.DUEHalfWidth, e.SDCHalfWidth, e.ESS)
				if e.Stopped {
					fmt.Fprintf(&b, " (stopped early)")
				}
				fmt.Fprintf(&b, "\n")
			}
		}
	}
	if len(r.Perf) > 0 {
		fmt.Fprintf(&b, "%-10s %9s", "workload", "prefetch")
		for _, l := range sc.Perf.Locks {
			fmt.Fprintf(&b, " %12s", l.Label)
		}
		fmt.Fprintf(&b, "\n")
		for _, u := range r.Perf {
			fmt.Fprintf(&b, "%-10s %9d", u.Workload, u.PrefetchDegree)
			for _, ws := range u.Speedups {
				fmt.Fprintf(&b, " %12.2f", ws)
			}
			fmt.Fprintf(&b, "\n")
		}
		if len(r.Perf) > 0 && len(r.Perf[0].RelPower) > 0 {
			fmt.Fprintf(&b, "relative DRAM dynamic power on %s (%% of %s):\n",
				r.Perf[0].Tech, sc.Perf.Locks[0].Label)
			for _, u := range r.Perf {
				fmt.Fprintf(&b, "%-10s %9d", u.Workload, u.PrefetchDegree)
				for _, p := range u.RelPower {
					fmt.Fprintf(&b, " %12.1f", p)
				}
				fmt.Fprintf(&b, "\n")
			}
		}
	}
	return b.String()
}
