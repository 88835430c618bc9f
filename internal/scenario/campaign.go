package scenario

import (
	"encoding/json"
	"fmt"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
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
// the trial index space: the coverage faulty-node target and the
// reliability replica count. Everything else — geometry, fault model,
// planners, Nodes (it scales per-system results), perf instruction
// budgets, the estimator and its stopping rule — changes trial content or
// interpretation and stays in the key.

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
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return "", fmt.Errorf("scenario: encode %s: %w", sc.Name, err)
	}
	return harness.Fingerprint("campaign", string(data)), nil
}

// BudgetTrials is the scenario's elastic budget as a single scalar — the
// coordinate that orders a campaign's store entries. For coverage it is
// the faulty-node target every study scales by its FaultyNodesFrac; for
// reliability it is the per-cell trial count (nodes × replicas). Perf and
// static scenarios have no elastic axis and report 0.
func (sc *Scenario) BudgetTrials() int {
	sc.Normalize()
	switch sc.Kind {
	case KindCoverage:
		return sc.Budget.FaultyNodes
	case KindReliability:
		return sc.Budget.Nodes * sc.Budget.Replicas
	default:
		return 0
	}
}

// Record renders the scenario into the record campaign logs and run
// manifests embed: name, fingerprint, the resolved memory technology, and
// the canonical spec document.
func (sc *Scenario) Record() (journal.Campaign, error) {
	doc, err := sc.Canonical()
	if err != nil {
		return journal.Campaign{}, err
	}
	fpr, err := sc.Fingerprint()
	if err != nil {
		return journal.Campaign{}, err
	}
	rec := journal.Campaign{Name: sc.Name, Fingerprint: fpr, Spec: json.RawMessage(doc)}
	if tech, err := sc.Tech(); err == nil {
		rec.Technology = tech.Name
		rec.TechFingerprint = tech.Fingerprint()
	}
	return rec, nil
}
