// Package power estimates DRAM dynamic power from operation counts, the
// way the paper does (Section 4.2): each activate/precharge pair, read
// burst, and write burst is charged the energy the Micron power methodology
// (TN-41-01) assigns for DDR3-1600 x4 devices, summed over the rank's 18
// devices. Only relative power matters for Figure 16, but the constants are
// kept physical so absolute numbers are plausible too.
package power

import "relaxfault/internal/perf"

// Per-rank operation energies in nanojoules (18 x4 DDR3-1600 devices;
// derived from IDD values per TN-41-01).
const (
	ActPreEnergyNJ = 13.2 // one activate+precharge pair
	ReadEnergyNJ   = 4.4  // one BL8 read burst
	WriteEnergyNJ  = 4.6  // one BL8 write burst
)

// OpEnergies is one memory technology's per-rank operation energy table.
// The technology layer (internal/memtech) registers a table per part;
// DDR3Energies is the DDR3-1600 one.
type OpEnergies struct {
	ActPreNJ float64 // one activate+precharge pair
	ReadNJ   float64 // one burst read
	WriteNJ  float64 // one burst write
}

// DDR3Energies returns the paper's TN-41-01 DDR3-1600 energy table.
func DDR3Energies() OpEnergies {
	return OpEnergies{ActPreNJ: ActPreEnergyNJ, ReadNJ: ReadEnergyNJ, WriteNJ: WriteEnergyNJ}
}

// DynamicEnergyNJ returns total DRAM dynamic energy for the op counts under
// this energy table.
func (e OpEnergies) DynamicEnergyNJ(ops perf.OpCounts) float64 {
	// Precharges pair with activates; charge the pair on the activate
	// count (every opened row is eventually closed).
	return float64(ops.Activates)*e.ActPreNJ +
		float64(ops.Reads)*e.ReadNJ +
		float64(ops.Writes)*e.WriteNJ
}

// DynamicPowerW returns average DRAM dynamic power over the interval.
func (e OpEnergies) DynamicPowerW(ops perf.OpCounts, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return e.DynamicEnergyNJ(ops) * 1e-9 / seconds
}

// RelativeDynamicPower returns the percentage of baseline dynamic power a
// configuration consumes under this energy table (Figure 16 reports this
// per workload).
func (e OpEnergies) RelativeDynamicPower(cfg, baseline perf.OpCounts, cfgSeconds, baseSeconds float64) float64 {
	base := e.DynamicPowerW(baseline, baseSeconds)
	if base == 0 {
		return 0
	}
	return 100 * e.DynamicPowerW(cfg, cfgSeconds) / base
}
