package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"relaxfault/internal/relsim"
	"relaxfault/internal/scenario"
)

// TestEstimatorAgreement is the differential acceptance check for the
// estimator layer: on real reliability presets, importance sampling and
// stratified sampling must land within the combined 95% confidence
// intervals of the naive estimator for both DUE and SDC rates. The seed is
// pinned, so this is a deterministic regression test, not a flaky
// statistical one.
func TestEstimatorAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("estimator agreement runs full Monte Carlo legs")
	}
	budget := scenario.Budget{FaultyNodes: 500, Nodes: 16384, Replicas: 1, Instructions: 40_000}
	presets := []string{"fig9", "fig12", "fig14"}
	alts := []*relsim.StatsConfig{
		{Estimator: relsim.EstimatorImportance, Boost: 8},
		{Estimator: relsim.EstimatorStratified},
	}
	for _, name := range presets {
		sc, err := presetAt(name, budget, 7)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		low, err := sc.Lower()
		if err != nil {
			t.Fatalf("lower %s: %v", name, err)
		}
		cells := low.Reliability
		if len(cells) > 3 {
			cells = cells[:3]
		}
		for i, base := range cells {
			base.Stats = &relsim.StatsConfig{Estimator: relsim.EstimatorNaive}
			naive, err := relsim.RunCtx(context.Background(), base)
			if err != nil {
				t.Fatalf("%s cell %d naive: %v", name, i, err)
			}
			for _, alt := range alts {
				cfg := base
				cfg.Stats = alt
				t.Run(fmt.Sprintf("%s/cell%d/%s", name, i, alt.Estimator), func(t *testing.T) {
					res, err := relsim.RunCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAgree(t, "DUE", res.DUEs, res.Estimator.DUEHalfWidth,
						naive.DUEs, naive.Estimator.DUEHalfWidth)
					checkAgree(t, "SDC", res.SDCs, res.Estimator.SDCHalfWidth,
						naive.SDCs, naive.Estimator.SDCHalfWidth)
				})
			}
		}
	}
}

// checkAgree asserts |a-b| <= hwA+hwB. When both half-widths are zero the
// point estimates must match exactly (typically both zero: no events seen
// by either estimator).
func checkAgree(t *testing.T, what string, a, hwA, b, hwB float64) {
	t.Helper()
	diff := math.Abs(a - b)
	if hwA == 0 && hwB == 0 {
		if diff != 0 {
			t.Errorf("%s: zero half-widths but estimates differ: %g vs naive %g", what, a, b)
		}
		return
	}
	if diff > hwA+hwB {
		t.Errorf("%s: %g +- %g disagrees with naive %g +- %g (diff %g > %g)",
			what, a, hwA, b, hwB, diff, hwA+hwB)
	}
}

// TestImportancePayoff gates the rare-event estimator's payoff on the
// rare-due preset's fault model at the default budget. The importance leg
// runs the preset's budget at boost 16 with no CI target, so it does not
// stop early; the naive leg runs 64x the replicas and still reports a
// wider interval. Extrapolating the naive budget to the importance
// half-width with the 1/sqrt(n) law must show at least a 10x trial
// reduction, and the two estimates must agree within their combined
// half-widths.
func TestImportancePayoff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rare-due fault model at 64x the preset budget")
	}
	sc, err := scenario.Preset("rare-due")
	if err != nil {
		t.Fatal(err)
	}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	is := low.Reliability[0]
	boost := is.Stats.Boost
	if boost != 16 {
		t.Fatalf("rare-due boost = %g, want 16", boost)
	}
	is.Stats = &relsim.StatsConfig{Estimator: relsim.EstimatorImportance, Boost: boost}
	isRes, err := relsim.RunCtx(context.Background(), is)
	if err != nil {
		t.Fatal(err)
	}
	naive := low.Reliability[0]
	naive.Replicas *= 64
	naive.Stats = &relsim.StatsConfig{Estimator: relsim.EstimatorNaive}
	nvRes, err := relsim.RunCtx(context.Background(), naive)
	if err != nil {
		t.Fatal(err)
	}

	isHW, nvHW := isRes.Estimator.DUEHalfWidth, nvRes.Estimator.DUEHalfWidth
	if ess := isRes.Estimator.ESS; ess <= 0 {
		t.Errorf("importance ESS = %g, want > 0", ess)
	}
	if isHW <= 0 {
		t.Fatalf("importance half-width = %g, want > 0", isHW)
	}
	if nvHW <= isHW {
		t.Errorf("naive half-width %g is not wider than importance half-width %g", nvHW, isHW)
	}
	ratio := nvHW / isHW
	required := float64(nvRes.Estimator.Trials) * ratio * ratio
	reduction := required / float64(isRes.Estimator.Trials)
	if reduction < 10 {
		t.Errorf("importance sampling needs only %.1fx fewer trials than naive, want >= 10x", reduction)
	}
	if diff := math.Abs(isRes.DUEs - nvRes.DUEs); diff > isHW+nvHW {
		t.Errorf("importance DUE %g +- %g disagrees with naive %g +- %g", isRes.DUEs, isHW, nvRes.DUEs, nvHW)
	}
	t.Logf("importance %d trials (DUE %.4f +- %.4f, ESS %.0f); naive %d trials (DUE %.4f +- %.4f); reduction %.0fx",
		isRes.Estimator.Trials, isRes.DUEs, isHW, isRes.Estimator.ESS,
		nvRes.Estimator.Trials, nvRes.DUEs, nvHW, reduction)
}
