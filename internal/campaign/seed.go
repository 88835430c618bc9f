package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
)

// seedArtifacts materialises a resumable checkpoint+journal for plan in
// dir from a completed store entry at a different trial budget. The
// source entry is digest cross-checked first (cached chunks are never
// trusted on bytes alone), then every chunk whose journaled trial span
// matches the span the new budget would compute is re-journaled under the
// new budget's section name/fingerprint and copied into the new snapshot —
// journal record strictly before snapshot chunk, preserving the
// journal ⊇ checkpoint invariant the resume cross-check enforces. The new
// journal seals "interrupted", so the caller's normal resume path (resume
// record + cross-check) takes over from there; a chunk payload never
// depends on the trial budget, so the seeded run's output is byte-
// identical to a from-scratch run at the new budget.
//
// Chunks the new budget would compute over a different span — the
// trailing partial chunk of a budget that is not chunk-aligned — are
// skipped and recomputed. Sections map by index: campaign-equivalent
// scenarios lower to the same section list in the same order, differing
// only in budget knobs.
func seedArtifacts(dir string, plan *Plan, src *cstore.Entry, mon *harness.Monitor) (reused int, err error) {
	if len(src.Meta.Sections) != len(plan.Sections) {
		return 0, fmt.Errorf("entry has %d section(s), plan has %d", len(src.Meta.Sections), len(plan.Sections))
	}
	oldStore, err := harness.OpenStore(src.Path(cstore.CheckpointFile), true)
	if err != nil {
		return 0, err
	}
	oldJ, err := journal.Load(src.Path(cstore.JournalFile))
	if err != nil {
		return 0, err
	}
	if !oldJ.SealedComplete() {
		return 0, fmt.Errorf("seed entry journal is not sealed complete")
	}
	if _, err := oldStore.CrossCheck(oldJ, false, mon); err != nil {
		return 0, err
	}
	latest := oldJ.LatestChunks()

	newStore, err := harness.OpenStore(filepath.Join(dir, cstore.CheckpointFile), false)
	if err != nil {
		return 0, err
	}
	jw, err := journal.Create(filepath.Join(dir, cstore.JournalFile))
	if err != nil {
		return 0, err
	}
	defer jw.Close()
	err = jw.Append(journal.Record{
		Type: journal.TypeOpen, Schema: journal.Schema,
		Seed: plan.Seed, Campaigns: []journal.Campaign{{
			Name: plan.Record.Name, Fingerprint: plan.Record.Fingerprint,
			Technology: plan.Record.Technology, TechFingerprint: plan.Record.TechFingerprint,
			Spec: plan.Record.Spec,
		}},
	})
	if err != nil {
		return 0, err
	}

	for i, newSec := range plan.Sections {
		oldSec := src.Meta.Sections[i]
		if oldSec.ChunkSize != newSec.ChunkSize {
			// Structurally different section (should not happen for
			// campaign-equivalent scenarios); recompute it from scratch.
			continue
		}
		oldCp := oldStore.Section(oldSec.Name, oldSec.Fingerprint)
		newCp := newStore.Section(newSec.Name, newSec.Fingerprint)
		chunks := harness.Chunking{Size: newSec.ChunkSize, Trials: newSec.TotalTrials}
		for _, ci := range oldCp.Indexes() {
			if ci >= chunks.Count() {
				continue
			}
			rec, ok := latest[journal.ChunkKey{Section: oldSec.Name, Chunk: ci}]
			if !ok {
				continue
			}
			lo, hi := chunks.Span(ci)
			if rec.TrialLo != lo || rec.TrialHi != hi {
				// The new budget computes a different span for this index
				// (trailing partial chunk); its payload would differ.
				continue
			}
			raw, ok := oldCp.Get(ci)
			if !ok {
				continue
			}
			if err := jw.AppendChunk(newSec.Name, newSec.Fingerprint, ci, lo, hi, rec.Digest); err != nil {
				return reused, err
			}
			if err := newCp.Put(ci, json.RawMessage(raw)); err != nil {
				return reused, err
			}
			reused++
		}
	}
	if err := jw.Seal(journal.StatusInterrupted); err != nil {
		return reused, err
	}
	if err := newStore.Flush(); err != nil {
		return reused, err
	}
	fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d: seeded %d chunk(s) from cached t%d entry\n",
		plan.Key, plan.Seed, reused, src.Meta.Trials)
	return reused, nil
}
