package main

import (
	"strings"
	"time"

	"relaxfault/internal/fault"
	"relaxfault/internal/relsim"
	"relaxfault/internal/repair"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
	"relaxfault/internal/stats"
)

// replayTrials bounds each section's outside replay to its first trials.
const replayTrials = 8192

// replayStats are the outside replays of the fault and repair layers: the
// same public calls the trial kernels make, on each section's own fault
// model and RNG substreams, timed single-threaded.
type replayStats struct {
	trials, faults int64
	sample         time.Duration
	// Planning: the faulty trials of sections with a planner and the time
	// to plan them; plans and lines tally the coverage studies' joint plans
	// (incremental planning reports no line count).
	faulty, plans, lines int64
	plan                 time.Duration
}

// replay times fault sampling and repair planning on the traced leg's
// lowered configuration: incremental TryRepair in arrival order for
// reliability cells, repair.PlanInto per planner for coverage studies.
func replay(low *scenario.Lowered) (replayStats, error) {
	var rs replayStats
	for _, cfg := range low.Reliability {
		boost := 0.0
		if cfg.Stats != nil && cfg.Stats.Estimator == relsim.EstimatorImportance {
			boost = cfg.Stats.Boost
			if boost == 0 {
				boost = relsim.DefaultBoost
			}
		}
		var plan func([]*fault.Fault)
		if inc, ok := cfg.Planner.(repair.Incremental); ok {
			st := inc.NewState()
			plan = func(perm []*fault.Fault) {
				st.Reset()
				for _, f := range perm {
					inc.TryRepair(st, f, cfg.WayLimit)
				}
			}
		}
		if err := replaySection(&rs, cfg.Model, cfg.Seed, min(replayTrials, cfg.TotalTrials()), boost, plan); err != nil {
			return rs, err
		}
	}
	for _, cfg := range low.Coverage {
		plans := make([]*repair.Plan, len(cfg.Planners))
		for i := range plans {
			plans[i] = &repair.Plan{}
		}
		plan := func(perm []*fault.Fault) {
			for i, pl := range cfg.Planners {
				plans[i] = repair.PlanInto(pl, plans[i], perm)
				rs.lines += plans[i].TotalLines
			}
			rs.plans += int64(len(plans))
		}
		if err := replaySection(&rs, cfg.Model, cfg.Seed, min(replayTrials, cfg.TotalTrials()), 0, plan); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// replaySection replays trials [0, n) of one section, timing the sampling of
// each trial and, when plan is set, the planning of each faulty trial's
// permanent faults.
func replaySection(rs *replayStats, model fault.Config, seed uint64, n int, boost float64, plan func([]*fault.Fault)) error {
	m, err := fault.NewModel(model)
	if err != nil {
		return err
	}
	fk := stats.NewRNG(seed).Forker()
	var rng stats.RNG
	var sc fault.SampleScratch
	var perm []*fault.Fault
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fk.Substream(uint64(i), &rng)
		var nf fault.NodeFaults
		if boost > 0 {
			nf, _ = m.SampleNodeBiased(&rng, &sc, boost)
		} else {
			nf = m.SampleNodeScratch(&rng, &sc)
		}
		t1 := time.Now()
		rs.sample += t1.Sub(t0)
		rs.faults += int64(len(nf.Faults))
		if perm = nf.PermanentFaultsInto(perm); plan == nil || len(perm) == 0 {
			continue
		}
		rs.faulty++
		plan(perm)
		rs.plan += time.Since(t1)
	}
	rs.trials += int64(n)
	return nil
}

// ledger is the traced leg's wall time split by layer, in seconds. The
// top-level rows sum to wall with residual; engine splits into the
// per-worker-average busy/claim/checkpoint/reduce-wait/idle, and busy into
// sample/plan/analyze by the replay ratios (estimates).
type ledger struct {
	Wall       float64 `json:"wall"`
	Setup      float64 `json:"setup"`
	Open       float64 `json:"open"`
	Seed       float64 `json:"open.seed"`
	CrossCheck float64 `json:"open.crosscheck"`
	Prelude    float64 `json:"run.prelude"`
	ResumeLoad float64 `json:"section.resume_load"`
	Engine     float64 `json:"section.engine"`
	Busy       float64 `json:"engine.busy"`
	Sample     float64 `json:"busy.sample_est"`
	Plan       float64 `json:"busy.plan_est"`
	Analyze    float64 `json:"busy.analyze_est"`
	Claim      float64 `json:"engine.claim"`
	Checkpoint float64 `json:"engine.checkpoint"`
	ReduceWait float64 `json:"engine.reduce_wait"`
	Idle       float64 `json:"engine.idle"`
	Flush      float64 `json:"section.flush"`
	Reduce     float64 `json:"section.reduce"`
	Seal       float64 `json:"seal"`
	Residual   float64 `json:"residual"`

	// Not ledger rows: totals the per-layer metrics divide.
	busyWorkerSec, windowWorkerSec, criticalPath float64
	flushAll, journalAppend                      float64
	flushes                                      int
	perfRuns                                     int
	perfRunSec, perfUnitMax                      float64
	opens, crossChecks, seals                    []float64
}

// buildLedger folds the traced leg's spans into its ledger.
func buildLedger(spans []runtrace.Span, m *legMeasure) *ledger {
	l := &ledger{Wall: m.wall}
	var sections, reduces []runtrace.Span
	var scenarioSec, runSec float64
	for _, s := range spans {
		d := s.Seconds()
		switch s.Track {
		case runtrace.TrackMain:
			switch {
			case s.Name == "bench.setup":
				l.Setup += d
			case s.Name == "bench.open":
				l.Open += d
				l.opens = append(l.opens, d)
			case s.Name == "bench.run":
				runSec += d
			case s.Name == "bench.seal":
				l.Seal += d
				l.seals = append(l.seals, d)
			case s.Name == "campaign.seed":
				l.Seed += d
			case s.Name == "campaign.crosscheck" || s.Name == "resume.crosscheck":
				l.CrossCheck += d
				if s.Name == "campaign.crosscheck" {
					l.crossChecks = append(l.crossChecks, d)
				}
			case s.Name == "resume.load":
				l.ResumeLoad += d
			case s.Name == "reduce":
				l.Reduce += d
				reduces = append(reduces, s)
			case strings.HasPrefix(s.Name, "scenario:"):
				scenarioSec += d
			case strings.HasPrefix(s.Name, "section:"):
				sections = append(sections, s)
			}
		case runtrace.TrackCheckpoint:
			l.flushAll += d
			l.flushes++
		case runtrace.TrackJournal:
			l.journalAppend += d
		default:
			if s.Name == "perf.run" {
				l.perfRuns++
				l.perfRunSec += d
			}
		}
	}
	l.Prelude = runSec - scenarioSec

	// Each section's engine window is runtrace.Analyze over the worker
	// spans inside the section; its categories are averaged per worker.
	var windows [][2]int64
	for _, sec := range sections {
		sub := runtrace.New()
		for _, s := range spans {
			if s.Track >= 0 && s.Start >= sec.Start && s.End <= sec.End {
				sub.Record(s.Track, s.Name, s.Chunk, s.Trials, s.Start, s.End)
			}
		}
		rep := runtrace.Analyze(sub)
		if len(rep.Workers) == 0 {
			continue
		}
		ws := sub.Spans()
		win := [2]int64{ws[0].Start, ws[0].End}
		for _, s := range ws {
			win[0], win[1] = min(win[0], s.Start), max(win[1], s.End)
		}
		windows = append(windows, win)
		n := float64(len(rep.Workers))
		l.Engine += rep.WallSeconds
		l.windowWorkerSec += rep.WallSeconds * n
		l.criticalPath += rep.CriticalPathSeconds
		for _, w := range rep.Workers {
			l.Busy += w.BusySeconds / n
			l.busyWorkerSec += w.BusySeconds
			l.Claim += w.ClaimSeconds / n
			l.Checkpoint += w.CheckpointSeconds / n
			l.ReduceWait += w.ReduceWaitSeconds / n
			l.Idle += w.IdleSeconds / n
			if sec.Name == "section:perf" {
				l.perfUnitMax = max(l.perfUnitMax, w.LongestChunkSeconds)
			}
		}
	}
	// Snapshot flushes a section makes outside its engine window and its
	// reduce span (the final flush after the engine drains).
	within := func(s runtrace.Span, lo, hi int64) bool { return s.Start >= lo && s.End <= hi }
	for _, s := range spans {
		if s.Track != runtrace.TrackCheckpoint {
			continue
		}
		inSection, covered := false, false
		for _, sec := range sections {
			inSection = inSection || within(s, sec.Start, sec.End)
		}
		for _, w := range windows {
			covered = covered || within(s, w[0], w[1])
		}
		for _, r := range reduces {
			covered = covered || within(s, r.Start, r.End)
		}
		if inSection && !covered {
			l.Flush += s.Seconds()
		}
	}
	l.Residual = l.Wall - (l.Setup + l.Open + l.Prelude + l.ResumeLoad + l.Engine + l.Flush + l.Reduce + l.Seal)
	return l
}

// perLayer computes the per-layer metrics of a traced run.
func (r *run) perLayer() (map[string]float64, *ledger) {
	m := r.traced
	l := buildLedger(r.trace.Spans(), m)
	rs := r.replay
	out := map[string]float64{}
	out["scenario.lower_ms"] = 1e3 * median(r.lower)
	out["runtrace.overhead_frac"] = ratio(m.wall, r.untracedWall) - 1
	out["ledger.residual_frac"] = ratio(l.Residual, l.Wall)
	// Per-trial replay costs; planning is amortised over every trial for
	// the busy split, and over faulty ones for its own metric.
	sampleNs := ratio(float64(rs.sample.Nanoseconds()), float64(rs.trials))
	planNs := ratio(float64(rs.plan.Nanoseconds()), float64(rs.trials))
	out["fault.sample_ns_per_trial"] = sampleNs
	out["fault.faults_per_trial"] = ratio(float64(rs.faults), float64(rs.trials))
	out["repair.plan_ns_per_faulty_trial"] = ratio(float64(rs.plan.Nanoseconds()), float64(rs.faulty))
	out["repair.lines_per_plan"] = ratio(float64(rs.lines), float64(rs.plans))

	computed := float64(m.computed)
	if r.w.name == "perf" {
		computed = 0 // the perf engine counts units, not trials
	}
	folded := float64(m.out.folded)
	kernelNs := ratio(l.busyWorkerSec*1e9, computed)
	analyzeNs := 0.0
	if kernelNs > 0 && rs.trials > 0 {
		// Busy time splits by the replay's per-trial costs against the
		// traced kernel's; analysis (or coverage bookkeeping) is the rest.
		analyzeNs = kernelNs - sampleNs - planNs
		l.Sample = l.Busy * sampleNs / kernelNs
		l.Plan = l.Busy * planNs / kernelNs
		l.Analyze = l.Busy - l.Sample - l.Plan
	}
	out["relsim.kernel_ns_per_trial"] = kernelNs
	out["relsim.analyze_ns_per_trial"] = analyzeNs
	out["relsim.computed_trials"] = computed
	out["relsim.folded_trials"] = folded
	out["relsim.useful_frac"] = ratio(folded, computed)
	out["relsim.bytes_per_trial"] = ratio(1e6*median(r.samples("alloc_mb")), computed)
	out["relsim.trials_per_s"] = ratio(folded, median(r.samples("wall_s")))
	stop, ess := 0.0, 0.0
	if res := m.out.results[len(m.out.results)-1]; len(res.Reliability) > 0 && res.Reliability[0].Estimator != nil {
		stop = float64(res.Reliability[0].Estimator.Trials)
		ess = res.Reliability[0].Estimator.ESS
	}
	out["relsim.estimator.stop_trials"] = stop
	out["relsim.estimator.ess"] = ess

	out["harness.busy_frac"] = ratio(l.busyWorkerSec, l.windowWorkerSec)
	out["harness.claim_s"] = l.Claim
	out["harness.reduce_wait_s"] = l.ReduceWait
	out["harness.idle_s"] = l.Idle
	out["harness.critical_path_s"] = l.criticalPath
	out["harness.checkpoint_stall_s"] = l.Checkpoint
	out["harness.flush_s"] = l.flushAll
	out["harness.flushes"] = float64(l.flushes)
	out["harness.checkpoint_bytes"] = float64(m.out.checkpointBytes)
	out["journal.append_s"] = l.journalAppend
	out["journal.fsyncs"] = float64(m.fsyncs)
	out["journal.bytes"] = float64(m.journalBytes)

	nth := func(xs []float64, i int) float64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	var hitOpens []float64
	if len(l.opens) > 2 {
		hitOpens = l.opens[2:]
	}
	out["campaign.open_cold_ms"] = 1e3 * nth(l.opens, 0)
	out["campaign.open_extend_ms"] = 1e3 * nth(l.opens, 1)
	out["campaign.open_hit_ms"] = 1e3 * median(hitOpens)
	out["campaign.seed_ms"] = 1e3 * l.Seed
	out["campaign.crosscheck_ms"] = 1e3 * median(l.crossChecks)
	out["campaign.seal_ms"] = 1e3 * (nth(l.seals, 0) + nth(l.seals, 1))
	out["campaign.reused_chunks"] = float64(m.out.extend.ReusedChunks)
	out["campaign.verified_chunks"] = float64(m.out.hitVerified)
	out["campaign.time_to_ci_s"] = median(r.samples("time_to_ci_s"))
	out["campaign.hit_ms"] = 1e3 * median(r.samples("hit_s"))

	instr := 0.0
	var llcHits, llcMisses, rowHits, rowMisses float64
	for _, u := range m.out.results[len(m.out.results)-1].Perf {
		for _, res := range u.Results {
			llcHits += float64(res.LLCHits)
			llcMisses += float64(res.LLCMisses)
			rowHits += float64(res.RowHits)
			rowMisses += float64(res.RowMisses)
		}
	}
	for _, u := range m.out.low.Perf {
		threads := float64(len(u.Workload.Threads))
		instr += float64(u.Base.TargetInstructions) * threads * float64(1+len(u.Locks))
	}
	out["perf.runs"] = float64(l.perfRuns)
	out["perf.host_us_per_run"] = ratio(1e6*l.perfRunSec, float64(l.perfRuns))
	out["perf.unit_max_s"] = l.perfUnitMax
	out["perf.host_ns_per_kinstr"] = ratio(1e9*l.perfRunSec, instr/1e3)
	out["perf.llc_miss_rate"] = ratio(llcMisses, llcHits+llcMisses)
	out["perf.row_hit_rate"] = ratio(rowHits, rowHits+rowMisses)
	out["perf.sim_minstr_per_s"] = ratio(instr/1e6, median(r.samples("wall_s")))
	return out, l
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
