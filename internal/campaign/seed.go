package campaign

import (
	"fmt"
	"os"

	cstore "relaxfault/internal/campaign/store"
)

// seedFrom copies into the campaign's live log every chunk of the completed
// entry src to which the old and the new budget give the same trial span —
// the condition under which the payloads are equal, since a chunk payload
// is a pure function of its span. src's sealed log is opened read-only
// with every payload checked against its digest first (cached chunks are
// never trusted on bytes alone); each copied chunk is then appended to the
// new log with its payload, exactly as a computed chunk is, so the seeded
// run's output is byte-identical to a from-scratch run at the new budget.
//
// Chunks the new budget would compute over a different span — the
// trailing partial chunk of a budget that is not chunk-aligned — are
// skipped and recomputed. Sections map by index: campaign-equivalent
// scenarios lower to the same section list in the same order, differing
// only in budget knobs.
func (c *Campaign) seedFrom(src *cstore.Entry) (reused int, err error) {
	plan := c.Plan
	if len(src.Meta.Sections) != len(plan.Sections) {
		return 0, fmt.Errorf("entry has %d section(s), plan has %d", len(src.Meta.Sections), len(plan.Sections))
	}
	old, err := readLog(src)
	if err != nil {
		return 0, err
	}
	for i, newSec := range plan.Sections {
		oldSec := src.Meta.Sections[i]
		oldCp := old.Section(oldSec)
		newCp := c.ex.Store.Section(newSec)
		for _, ci := range oldCp.Indexes() {
			lo, hi := newSec.Span(ci)
			if olo, ohi := oldSec.Span(ci); olo != lo || ohi != hi {
				continue
			}
			raw, _ := oldCp.Get(ci)
			if err := newCp.Put(ci, raw); err != nil {
				return reused, err
			}
			reused++
		}
	}
	c.rec.VerifiedChunks = old.Verified()
	fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d: seeded %d chunk(s) from cached t%d entry\n",
		plan.Key, plan.Seed, reused, src.Meta.Trials)
	return reused, nil
}
