package perf

import (
	"testing"

	"relaxfault/internal/dram"
	"relaxfault/internal/trace"
)

// TestChannelRowHitStreams checks that FR-FCFS preserves row-buffer
// locality when eight staggered streams share the channels: the row-hit
// rate must stay high, and aggregate bandwidth must be a respectable
// fraction of the pin bandwidth.
func TestChannelRowHitStreams(t *testing.T) {
	w := trace.WorkloadByName("SP")
	if w == nil {
		t.Fatal("missing SP workload")
	}
	cfg := DefaultSystemConfig()
	cfg.TargetInstructions = 200_000
	res, err := new(Machine).Run(cfg, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	total := res.RowHits + res.RowMisses
	if total == 0 {
		t.Fatal("no DRAM traffic simulated")
	}
	hitRate := float64(res.RowHits) / float64(total)
	bw := float64(res.Ops.Reads+res.Ops.Writes) * 64 / res.Seconds / 1e9
	t.Logf("row-hit rate %.2f, bandwidth %.1f GB/s", hitRate, bw)
	if hitRate < 0.5 {
		t.Errorf("streaming row-hit rate %.2f below 0.5: scheduler lost row locality", hitRate)
	}
	if bw < 5 {
		t.Errorf("aggregate stream bandwidth %.1f GB/s implausibly low", bw)
	}
}

// TestChannelTimingMonotonic checks basic DDR3 timing invariants on a
// hand-built request sequence: completions are monotone per bank-row
// stream, a row hit completes faster than a row miss, and every request
// eventually completes.
func TestChannelTimingMonotonic(t *testing.T) {
	ch := NewChannelSpec(2, 8, DDR3Timing())
	mkReq := func(rank, bank, row, cb int) *Request {
		return &Request{Loc: dram.Location{Rank: rank, Bank: bank, Row: row, ColBlock: cb}}
	}
	// Two hits to one row, then a conflicting row.
	r1 := mkReq(0, 0, 10, 0)
	r2 := mkReq(0, 0, 10, 1)
	r3 := mkReq(0, 0, 99, 0)
	ch.Enqueue(r1)
	ch.Enqueue(r2)
	ch.Enqueue(r3)
	for tck := int64(0); tck < 1000 && (!r1.Scheduled || !r2.Scheduled || !r3.Scheduled); tck++ {
		ch.Tick(tck)
	}
	if !r1.Scheduled || !r2.Scheduled || !r3.Scheduled {
		t.Fatal("requests not all scheduled within 1000 tCK")
	}
	if !(r1.DoneAt < r2.DoneAt && r2.DoneAt < r3.DoneAt) {
		t.Errorf("completions not monotone: %d %d %d", r1.DoneAt, r2.DoneAt, r3.DoneAt)
	}
	hitLatency := r2.DoneAt - r1.DoneAt
	missLatency := r3.DoneAt - r2.DoneAt
	if hitLatency >= missLatency {
		t.Errorf("row hit (%d) not faster than row miss (%d)", hitLatency, missLatency)
	}
	if ch.RowHits != 1 || ch.RowMisses != 2 {
		t.Errorf("row hit/miss accounting: got %d/%d, want 1/2", ch.RowHits, ch.RowMisses)
	}
	if ch.Ops.Activates != 2 || ch.Ops.Precharges != 1 || ch.Ops.Reads != 3 {
		t.Errorf("op counts ACT=%d PRE=%d RD=%d, want 2/1/3", ch.Ops.Activates, ch.Ops.Precharges, ch.Ops.Reads)
	}
}

// TestWriteDrainWatermarks checks that queued writes are eventually
// serviced and the write queue drains below its watermark.
func TestWriteDrainWatermarks(t *testing.T) {
	ch := NewChannelSpec(1, 8, DDR3Timing())
	var reqs []*Request
	for i := 0; i < 64; i++ {
		r := &Request{Loc: dram.Location{Bank: i % 8, Row: i / 8, ColBlock: i % 32}, Write: true}
		reqs = append(reqs, r)
		ch.Enqueue(r)
	}
	for tck := int64(0); tck < 10000 && ch.Busy(); tck++ {
		ch.Tick(tck)
	}
	for i, r := range reqs {
		if !r.Scheduled {
			t.Fatalf("write %d never scheduled", i)
		}
	}
	if ch.Ops.Writes != 64 {
		t.Errorf("write count %d, want 64", ch.Ops.Writes)
	}
}

// TestBusBandwidthBound: the data bus transfers one 64B burst per 4 tCK at
// most, so no schedule may complete more requests than elapsed-time/4.
func TestBusBandwidthBound(t *testing.T) {
	ch := NewChannelSpec(2, 8, DDR3Timing())
	var reqs []*Request
	for i := 0; i < 512; i++ {
		reqs = append(reqs, &Request{Loc: dram.Location{
			Rank: i % 2, Bank: (i / 2) % 8, Row: i % 4, ColBlock: i % 32,
		}})
		ch.Enqueue(reqs[i])
	}
	var lastDone int64
	for tck := int64(0); tck < 100000 && ch.Busy(); tck++ {
		ch.Tick(tck)
	}
	for i, r := range reqs {
		if !r.Scheduled {
			t.Fatalf("request %d never scheduled", i)
		}
		if r.DoneAt > lastDone {
			lastDone = r.DoneAt
		}
	}
	spec := DDR3Timing()
	elapsedTck := lastDone / spec.CPUPerMC
	if int64(len(reqs))*spec.TBurst > elapsedTck {
		t.Errorf("512 bursts completed in %d tCK; bus allows at most %d", elapsedTck, elapsedTck/spec.TBurst)
	}
	// And the schedule should not be wildly inefficient either: banks and
	// bus together should keep utilisation above 25%.
	if elapsedTck > int64(len(reqs))*spec.TBurst*4 {
		t.Errorf("schedule too sparse: %d tCK for %d bursts", elapsedTck, len(reqs))
	}
}

// TestNoTwoBurstsOverlapOnBus: reconstructed data-bus occupancy intervals
// must be disjoint.
func TestNoTwoBurstsOverlapOnBus(t *testing.T) {
	ch := NewChannelSpec(2, 8, DDR3Timing())
	var reqs []*Request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, &Request{Loc: dram.Location{
			Rank: i % 2, Bank: i % 8, Row: i * 7 % 64, ColBlock: i % 32,
		}})
		ch.Enqueue(reqs[i])
	}
	for tck := int64(0); tck < 100000 && ch.Busy(); tck++ {
		ch.Tick(tck)
	}
	spec := DDR3Timing()
	ends := map[int64]bool{}
	for _, r := range reqs {
		end := r.DoneAt / spec.CPUPerMC
		for b := end - spec.TBurst + 1; b <= end; b++ {
			if ends[b] {
				t.Fatalf("two bursts share bus slot %d", b)
			}
			ends[b] = true
		}
	}
}
