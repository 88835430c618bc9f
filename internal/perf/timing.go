package perf

import "fmt"

// TimingSpec is one memory technology's channel timing in memory-clock
// cycles (tCK). It replaces the DDR3-1600 const block that used to be baked
// into the channel model, so the same FR-FCFS scheduler can run DDR4, HBM,
// or LPDDR4 parts (internal/memtech registers the concrete specs).
//
// Bank grouping follows DDR4: back-to-back column commands to the same bank
// group must be TCCDL apart, while commands to different groups only need
// TCCDS. Technologies without bank groups (DDR3, LPDDR4) set BankGroups to
// 0 or 1 and TCCDS == TCCDL; the channel then applies exactly the single
// tCCD constraint the legacy DDR3 model used, keeping its schedules
// bit-identical.
type TimingSpec struct {
	// TCKNS is the memory clock period in nanoseconds (informational;
	// CPUPerMC encodes the clock ratio the simulator actually uses).
	TCKNS float64
	// Row/column command latencies.
	TRCD int64 // activate to column command
	TRP  int64 // precharge period
	TCL  int64 // CAS (read) latency
	TCWL int64 // CAS write latency
	TRAS int64 // activate to precharge
	// Column-command separation: short (different bank group) and long
	// (same bank group). Ungrouped technologies set both equal.
	TCCDS int64
	TCCDL int64
	// TBurst is the data-bus occupancy of one cacheline burst (BL8 at
	// double data rate = 4 tCK).
	TBurst int64
	TWR    int64 // write recovery before precharge
	TWTR   int64 // write-to-read turnaround
	TRTP   int64 // read-to-precharge
	// BankGroups is the DDR4-style grouping (0 or 1 = no groups). When
	// above 1 it must divide the geometry's bank count.
	BankGroups int
	// CPUPerMC is the integer ratio of 4GHz CPU cycles per memory cycle
	// (round(4GHz * tCK)); request completion times are reported in CPU
	// cycles through it.
	CPUPerMC int64
}

// DDR3Timing returns the paper's DDR3-1600 11-11-11 timing (tCK = 1.25ns,
// Micron MT41J datasheet) — the values the channel model hard-coded before
// the technology layer existed. DefaultMemConfig and the ddr3-1600
// technology use it.
func DDR3Timing() TimingSpec {
	return TimingSpec{
		TCKNS:      1.25,
		TRCD:       11,
		TRP:        11,
		TCL:        11,
		TCWL:       8,
		TRAS:       28,
		TCCDS:      4,
		TCCDL:      4,
		TBurst:     4,
		TWR:        12,
		TWTR:       6,
		TRTP:       6,
		BankGroups: 1,
		CPUPerMC:   5, // 4GHz CPU cycles per 800MHz memory cycle
	}
}

// TRC is the derived row-cycle time (activate-to-activate on one bank).
func (t TimingSpec) TRC() int64 { return t.TRAS + t.TRP }

// Grouped reports whether the technology imposes bank-group constraints.
func (t TimingSpec) Grouped() bool { return t.BankGroups > 1 }

// Validate reports the first datasheet-impossible relation, if any.
func (t TimingSpec) Validate() error {
	pos := []struct {
		name string
		v    int64
	}{
		{"tRCD", t.TRCD}, {"tRP", t.TRP}, {"tCL", t.TCL}, {"tCWL", t.TCWL},
		{"tRAS", t.TRAS}, {"tCCD_S", t.TCCDS}, {"tCCD_L", t.TCCDL},
		{"tBurst", t.TBurst}, {"tWR", t.TWR}, {"tWTR", t.TWTR}, {"tRTP", t.TRTP},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("perf: timing %s must be positive, got %d", p.name, p.v)
		}
	}
	if t.TCKNS <= 0 {
		return fmt.Errorf("perf: timing tCK must be positive, got %g", t.TCKNS)
	}
	if t.CPUPerMC < 1 {
		return fmt.Errorf("perf: CPUPerMC must be at least 1, got %d", t.CPUPerMC)
	}
	if t.TCCDL < t.TCCDS {
		return fmt.Errorf("perf: tCCD_L %d below tCCD_S %d", t.TCCDL, t.TCCDS)
	}
	if t.TRAS < t.TRCD+t.TBurst {
		return fmt.Errorf("perf: tRAS %d below tRCD+tBurst %d", t.TRAS, t.TRCD+t.TBurst)
	}
	if t.BankGroups < 0 {
		return fmt.Errorf("perf: negative bank groups %d", t.BankGroups)
	}
	return nil
}
