// Scrubber: the online fault-management loop of a RAS subsystem. A patrol
// scrubber sweeps physical memory on a node whose DRAM develops faults
// sampled from the paper's field-data model; the corrected-error tracker
// attributes CEs to devices, infers each fault's physical extent (row,
// column, bank cluster), and hands it to the RelaxFault controller for
// online repair — after which the scrubber observes the region clean.
package main

import (
	"fmt"
	"log"

	"relaxfault/internal/core"
	"relaxfault/internal/dram"
	"relaxfault/internal/ecc"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

func main() {
	ctrl, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	g := ctrl.Mapper().Geometry()
	tracker := core.NewTracker(g, 2)
	rng := stats.NewRNG(99)

	// Sample a faulty node from the field-data model (keep drawing until
	// the node has repairable permanent faults).
	model, err := fault.NewModel(fault.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var faults []*fault.Fault
	for len(faults) == 0 {
		nf := model.SampleNode(rng)
		for _, f := range nf.PermanentFaults() {
			if f.Mode == fault.SingleBit || f.Mode == fault.SingleRow || f.Mode == fault.SingleColumn {
				faults = append(faults, f)
			}
		}
	}
	for _, f := range faults {
		if err := ctrl.InjectFault(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("injected: %v fault on %v (%d cells)\n", f.Mode, f.Dev, f.CellCount(g))
	}

	// Patrol scrub: walk the faulty regions line by line (a real scrubber
	// walks everything; sweeping the 64GiB node in a demo would be
	// pointless work, so the sweep is focused). Every corrected error is
	// reported to the tracker; when it infers a fault, repair online.
	scrubbed, ces, repairs := 0, 0, 0
	for _, f := range faults {
		done := false
		// Patrol passes repeat, so even a single-cell fault accumulates
		// enough corrected errors to cross the tracker's threshold.
		for pass := 0; pass < tracker.Threshold+1 && !done; pass++ {
			// Patrol reads go to DRAM, not the cache; flushing between
			// passes models the scrubber's cache-bypassing reads.
			ctrl.Flush()
			for _, e := range f.Extents {
				if done {
					break
				}
				e.ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
					loc := dram.Location{Channel: f.Dev.Channel, Rank: f.Dev.Rank, Bank: bank, Row: row, ColBlock: cb}
					la := ctrl.Mapper().Encode(loc)
					_, st, err := ctrl.ReadLine(la)
					if err != nil {
						log.Fatal(err)
					}
					scrubbed++
					if st == ecc.Corrected {
						ces++
						if inferred, fired := tracker.Observe(f.Dev, loc); fired {
							out, err := ctrl.RepairFault(inferred)
							if err != nil {
								log.Fatal(err)
							}
							if out.Accepted {
								repairs++
								fmt.Printf("scrubber: inferred %v fault on %v after %d CEs; repaired with %d remap lines\n",
									inferred.Mode, f.Dev, tracker.Observations(f.Dev), out.LinesAllocated)
								tracker.Reset(f.Dev)
								done = true
								return false
							}
							fmt.Printf("scrubber: repair rejected: %s\n", out.Reason)
						}
					}
					return scrubbed < 100000
				})
			}
		}
	}

	// Verify: re-scrub the faulty regions; they must now be clean. Flush
	// first, as each patrol pass does, so the reads reach DRAM and the
	// remap merge instead of the lines the last pass left in the LLC.
	ctrl.Flush()
	dirty := 0
	for _, f := range faults {
		for _, e := range f.Extents {
			checked := 0
			e.ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
				loc := dram.Location{Channel: f.Dev.Channel, Rank: f.Dev.Rank, Bank: bank, Row: row, ColBlock: cb}
				_, st, err := ctrl.ReadLine(ctrl.Mapper().Encode(loc))
				if err != nil {
					log.Fatal(err)
				}
				if st != ecc.OK {
					dirty++
				}
				checked++
				return checked < 64
			})
		}
	}

	fmt.Printf("\nscrub summary: %d lines scrubbed, %d corrected errors, %d online repairs\n",
		scrubbed, ces, repairs)
	fmt.Printf("post-repair verification: %d lines still erroring (want 0)\n", dirty)
	fmt.Printf("LLC spent on repair: %d bytes (%d lines) of %d KiB\n",
		ctrl.RepairedBytes(), ctrl.RepairedLines(), ctrl.LLC().CapacityBytes()/1024)
	if dirty > 0 {
		log.Fatal("repair incomplete")
	}
}
