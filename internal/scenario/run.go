package scenario

import (
	"context"
	"fmt"
	"strings"

	"relaxfault/internal/harness"
	"relaxfault/internal/perf"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
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

// Run executes the scenario with background context.
func Run(sc *Scenario, ex Exec) (*Result, error) { return RunCtx(context.Background(), sc, ex) }

// RunCtx validates, lowers, and executes the scenario on the shared
// simulation engines. Coverage studies and reliability cells run in spec
// order on the checkpointing Monte Carlo engine; perf units fan out on the
// sharded work engine (results are index-collected, so output is identical
// to a sequential sweep).
func RunCtx(ctx context.Context, sc *Scenario, ex Exec) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
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

// runPerf fans the perf units out on the sharded engine, one chunk per
// unit. Each unit measures its unlocked baseline first (computing the
// alone-IPC denominators), then every other lock against it — the
// weighted-speedup methodology of Figure 15.
func runPerf(ctx context.Context, units []PerfUnitConfig, ex Exec) ([]PerfUnit, error) {
	outs := make([]PerfUnit, len(units))
	errs := make([]error, len(units))
	eng := harness.Engine{Exec: ex}
	runErr := eng.Run(ctx, len(units), func(w, k int) (int64, bool) {
		u := units[k]
		// Each perf.Run inside this unit records onto the executing
		// worker's track, nested under the engine's chunk span.
		u.Base.Trace = ex.Trace
		u.Base.TraceTrack = w
		res := PerfUnit{
			Workload:       u.Workload.Name,
			PrefetchDegree: u.PrefetchDegree,
			Tech:           u.Tech,
			Locks:          u.Locks,
			Speedups:       make([]float64, len(u.Locks)),
			Results:        make([]*perf.Result, len(u.Locks)),
			RelPower:       make([]float64, len(u.Locks)),
		}
		ws, alone, shared, err := perf.WeightedSpeedup(u.Base, u.Workload.Threads, nil)
		if err != nil {
			errs[k] = err
			return 0, true
		}
		res.Speedups[0], res.Results[0], res.Alone = ws, shared, alone
		res.RelPower[0] = 100
		for i, l := range u.Locks[1:] {
			cfg := u.Base
			cfg.LockWays = l.Ways
			cfg.LockBytes = l.Bytes
			ws, _, shared, err := perf.WeightedSpeedup(cfg, u.Workload.Threads, alone)
			if err != nil {
				errs[k] = err
				return 0, true
			}
			res.Speedups[i+1], res.Results[i+1] = ws, shared
			res.RelPower[i+1] = u.Energy.RelativeDynamicPower(
				shared.Ops, res.Results[0].Ops, shared.Seconds, res.Results[0].Seconds)
		}
		outs[k] = res
		return 1, true
	})
	if runErr != nil {
		return nil, runErr
	}
	for k := range units {
		if errs[k] != nil {
			return nil, fmt.Errorf("workload %s: %w", units[k].Workload.Name, errs[k])
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
