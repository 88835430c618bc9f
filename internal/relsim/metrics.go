package relsim

import (
	"relaxfault/internal/fault"
	"relaxfault/internal/obs"
)

// Process-wide Monte Carlo telemetry, bound to the default registry at
// init so the relsim.* families exist (zero-valued) in every snapshot.
//
// Work counters count computed trials, speculative ones included: the
// trial counter advances once per chunk, and the per-fault counters fire
// only for the few nodes that develop faults. The result totals (faulty
// nodes, DUEs, SDCs, replacements) are added by RunCtx's fold from each
// chunk's Result in chunk-index order, so they describe exactly the folded
// result for any worker count; they are float counters because the
// simulator accumulates in expectation, as the paper's analysis does.
var rm = struct {
	trialsDone    *obs.Counter // trials executed in this process
	trialsResumed *obs.Counter // trials adopted verbatim from a checkpoint

	injected  [fault.NumModes]*obs.Counter
	permanent *obs.Counter
	transient *obs.Counter

	faultyNodes  *obs.FloatCounter
	repairs      *obs.Counter // permanent faults masked by the repair engine
	repairMisses *obs.Counter // permanent faults the engine could not place
	dues         *obs.FloatCounter
	sdcs         *obs.FloatCounter
	replacements *obs.FloatCounter

	covNodes  *obs.Counter // nodes sampled by coverage studies
	covFaulty *obs.Counter // of those, nodes with permanent faults

	estTrialsSaved *obs.Counter // budgeted trials the stopping rule made unnecessary
	estESS         *obs.Gauge   // Kish effective sample size of the last estimator run
	estHalfWidth   *obs.Gauge   // per-system DUE CI half-width of the last estimator run
}{
	trialsDone:    obs.Default().Counter("relsim.trials_done"),
	trialsResumed: obs.Default().Counter("relsim.trials_resumed"),

	permanent: obs.Default().Counter("relsim.faults.permanent"),
	transient: obs.Default().Counter("relsim.faults.transient"),

	faultyNodes:  obs.Default().FloatCounter("relsim.faulty_nodes"),
	repairs:      obs.Default().Counter("relsim.repairs.applied"),
	repairMisses: obs.Default().Counter("relsim.repairs.missed"),
	dues:         obs.Default().FloatCounter("relsim.due"),
	sdcs:         obs.Default().FloatCounter("relsim.sdc"),
	replacements: obs.Default().FloatCounter("relsim.replacements"),

	covNodes:  obs.Default().Counter("relsim.coverage.nodes_sampled"),
	covFaulty: obs.Default().Counter("relsim.coverage.faulty_nodes"),

	estTrialsSaved: obs.Default().Counter("relsim.estimator.trials_saved"),
	estESS:         obs.Default().Gauge("relsim.estimator.ess"),
	estHalfWidth:   obs.Default().Gauge("relsim.estimator.ci_half_width"),
}

func init() {
	for m := fault.Mode(0); m < fault.NumModes; m++ {
		rm.injected[m] = obs.Default().Counter("relsim.faults.injected." + obs.SanitizeName(m.String()))
	}
}

// recordFault tallies one injected fault by mode and persistence.
func recordFault(f *fault.Fault) {
	if f.Mode >= 0 && f.Mode < fault.NumModes {
		rm.injected[f.Mode].Inc()
	}
	if f.Permanent() {
		rm.permanent.Inc()
	} else {
		rm.transient.Inc()
	}
}

// coveragePlanBytesHist returns the per-planner capacity histogram
// ("relsim.coverage.plan_bytes.<planner>"), registered on first use.
func coveragePlanBytesHist(planner string) *obs.Histogram {
	return obs.Default().Histogram("relsim.coverage.plan_bytes."+obs.SanitizeName(planner), obs.ByteBuckets)
}
