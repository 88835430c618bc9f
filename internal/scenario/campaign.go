package scenario

import (
	"encoding/json"
	"fmt"

	"relaxfault/internal/harness"
	"relaxfault/internal/relsim"
)

// This file derives a scenario's campaign identity: the budget-free
// fingerprint that keys the content-addressed result store, the elastic
// budget scalar that orders store entries, and the checkpoint/journal
// section plan that lets a cached entry seed a run at a different budget.
//
// The split between "structural" and "elastic" knobs is the load-bearing
// decision. Trial i of a run forks RNG stream i of the root seed and its
// payload never depends on how many trials the budget asks for, so two
// scenarios that differ only in trial budget share every chunk they both
// compute. The elastic axes are exactly the ones that only grow or shrink
// the trial index space: the coverage faulty-node target, the reliability
// replica count, and the statistics MaxTrials cap. Everything else —
// geometry, fault model, planners, Nodes (it scales per-system results),
// perf instruction budgets, the estimator and its stopping rule — changes
// trial content or interpretation and stays in the key.

// CampaignFingerprint hashes the scenario with its elastic budget axes
// cleared: two scenarios share a campaign fingerprint exactly when a
// completed run of one can serve (or seed) a run of the other at some
// trial budget. The seed is also cleared — the store keys entries as
// <campaign fingerprint>/<seed>, so it is a separate coordinate.
func (sc *Scenario) CampaignFingerprint() (string, error) {
	c := *sc
	c.Normalize()
	c.Seed = nil
	c.Budget.FaultyNodes = 0
	c.Budget.Replicas = 0
	if c.Statistics != nil {
		st := *c.Statistics
		st.MaxTrials = 0
		if st == (relsim.StatsConfig{Estimator: relsim.EstimatorNaive}) {
			// A statistics block that only capped trials is equivalent to
			// no block at all once the cap is cleared (Normalize defaults
			// the estimator to naive either way).
			c.Statistics = nil
		} else {
			c.Statistics = &st
		}
	}
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return "", fmt.Errorf("scenario: encode %s: %w", sc.Name, err)
	}
	return harness.Fingerprint("campaign", string(data)), nil
}

// BudgetTrials is the scenario's elastic budget as a single scalar — the
// coordinate that orders a campaign's store entries. For coverage it is
// the faulty-node target every study scales by its FaultyNodesFrac; for
// reliability it is the per-cell trial count (nodes × replicas, capped by
// an active MaxTrials). Perf and static scenarios have no elastic axis
// and report 0.
func (sc *Scenario) BudgetTrials() int {
	sc.Normalize()
	switch sc.Kind {
	case KindCoverage:
		return sc.Budget.FaultyNodes
	case KindReliability:
		total := sc.Budget.Nodes * sc.Budget.Replicas
		if st := sc.Statistics; st != nil && st.MaxTrials > 0 && st.MaxTrials < total {
			total = st.MaxTrials
		}
		return total
	default:
		return 0
	}
}

// Sections plans the scenario's checkpoint sections without running it, in
// the exact order RunCtx executes them (coverage studies, then reliability
// cells; perf units do not checkpoint). Two lowerings of campaign-
// equivalent scenarios produce index-aligned section lists, which is what
// lets a store entry's chunks be re-journaled under a new budget's section
// names.
func (sc *Scenario) Sections() ([]harness.Section, error) {
	low, err := sc.Lower()
	if err != nil {
		return nil, err
	}
	var out []harness.Section
	for i := range low.Coverage {
		out = append(out, low.Coverage[i].Section())
	}
	for i := range low.Reliability {
		out = append(out, low.Reliability[i].Section())
	}
	return out, nil
}

// Record renders the scenario into its manifest embedding: name,
// fingerprint, the canonical spec document, and the resolved memory
// technology.
func (sc *Scenario) Record() (harness.ScenarioRecord, error) {
	doc, err := sc.Canonical()
	if err != nil {
		return harness.ScenarioRecord{}, err
	}
	fpr, err := sc.Fingerprint()
	if err != nil {
		return harness.ScenarioRecord{}, err
	}
	rec := harness.ScenarioRecord{Name: sc.Name, Fingerprint: fpr, Spec: json.RawMessage(doc)}
	if tech, err := sc.Tech(); err == nil {
		rec.Technology = tech.Name
		rec.TechFingerprint = tech.Fingerprint()
	}
	return rec, nil
}
