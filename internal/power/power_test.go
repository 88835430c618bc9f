package power

import (
	"math"
	"testing"

	"relaxfault/internal/perf"
)

func TestDynamicEnergyArithmetic(t *testing.T) {
	ops := perf.OpCounts{Activates: 10, Precharges: 10, Reads: 100, Writes: 50}
	want := 10*ActPreEnergyNJ + 100*ReadEnergyNJ + 50*WriteEnergyNJ
	e := DDR3Energies()
	if got := e.DynamicEnergyNJ(ops); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy %f, want %f", got, want)
	}
	if e.DynamicEnergyNJ(perf.OpCounts{}) != 0 {
		t.Error("zero ops should cost nothing")
	}
}

func TestDynamicPower(t *testing.T) {
	ops := perf.OpCounts{Activates: 1_000_000, Reads: 8_000_000, Writes: 2_000_000}
	e := DDR3Energies()
	p := e.DynamicPowerW(ops, 1.0)
	// 1M*13.2 + 8M*4.4 + 2M*4.6 nJ over 1s = ~57.6 mW.
	want := (1e6*ActPreEnergyNJ + 8e6*ReadEnergyNJ + 2e6*WriteEnergyNJ) * 1e-9
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("power %g, want %g", p, want)
	}
	if e.DynamicPowerW(ops, 0) != 0 {
		t.Error("zero interval should yield zero power")
	}
}

func TestRelativeDynamicPower(t *testing.T) {
	e := DDR3Energies()
	base := perf.OpCounts{Activates: 100, Reads: 1000, Writes: 200}
	// Identical ops and time -> 100%.
	if r := e.RelativeDynamicPower(base, base, 2.0, 2.0); math.Abs(r-100) > 1e-9 {
		t.Errorf("identity relative power %f", r)
	}
	// Same ops in half the time -> 200%.
	if r := e.RelativeDynamicPower(base, base, 1.0, 2.0); math.Abs(r-200) > 1e-9 {
		t.Errorf("half-time relative power %f", r)
	}
	// Zero baseline is safe.
	if r := e.RelativeDynamicPower(base, perf.OpCounts{}, 1, 1); r != 0 {
		t.Errorf("zero baseline relative power %f", r)
	}
}

func TestOpCountsAdd(t *testing.T) {
	a := perf.OpCounts{Activates: 1, Precharges: 2, Reads: 3, Writes: 4}
	a.Add(perf.OpCounts{Activates: 10, Precharges: 20, Reads: 30, Writes: 40})
	if a.Activates != 11 || a.Precharges != 22 || a.Reads != 33 || a.Writes != 44 {
		t.Errorf("add result %+v", a)
	}
}
