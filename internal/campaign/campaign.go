// Package campaign owns the lifecycle of one simulation campaign: Plan
// derives the canonical campaign key from a resolved scenario, Open wires
// the checkpoint store, replay journal, cross-check policy, and telemetry
// (from explicit paths for the legacy -checkpoint/-journal flags, or from
// a content-addressed result store for keyed campaigns), Run drives the
// scenario runner, and Seal freezes the artifacts and records the
// campaign's store coordinates for the run manifest.
//
// Keyed campaigns are budget-aware. The campaign key hashes the scenario
// with its elastic trial-budget axes cleared (scenario.CampaignFingerprint),
// so store entries computed at different budgets share a key and serve
// each other: an entry at the exact budget is a pure cache hit (its
// sealed checkpoint is digest cross-checked against its journal, then
// re-reduced — zero trials execute); a completed larger budget or a
// sequentially-stopped run seeds a resume that reuses every chunk; and a
// smaller completed budget seeds a resume that computes only the missing
// tail, byte-identical to a from-scratch run at the new budget.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

// Campaign-layer telemetry (campaign.* namespace, see OBSERVABILITY.md).
var cm = struct {
	hits    *obs.Counter
	misses  *obs.Counter
	resumes *obs.Counter
	reused  *obs.Counter
}{
	hits:    obs.Default().Counter("campaign.hits"),
	misses:  obs.Default().Counter("campaign.misses"),
	resumes: obs.Default().Counter("campaign.resumes"),
	reused:  obs.Default().Counter("campaign.chunks_reused"),
}

// Plan is a scenario resolved into its campaign identity: the budget-free
// key, the seed and elastic trial budget (the store coordinates), the
// planned checkpoint sections, and the manifest record.
type Plan struct {
	Scenario *scenario.Scenario
	// Key is the campaign fingerprint (budget axes cleared).
	Key  string
	Seed uint64
	// Trials is the elastic budget scalar (scenario.BudgetTrials).
	Trials   int
	Sections []scenario.SectionInfo
	Record   harness.ScenarioRecord
}

// NewPlan validates sc and derives its campaign plan.
func NewPlan(sc *scenario.Scenario) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	key, err := sc.CampaignFingerprint()
	if err != nil {
		return nil, err
	}
	secs, err := sc.Sections()
	if err != nil {
		return nil, err
	}
	rec, err := sc.Record()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Scenario: sc, Key: key, Seed: *sc.Seed, Trials: sc.BudgetTrials(),
		Sections: secs, Record: rec,
	}, nil
}

// Options carries the execution-environment attachments of a campaign.
// None of it affects results.
type Options struct {
	Workers int
	Mon     *harness.Monitor
	Trace   *runtrace.Recorder
	// FlushInterval overrides the checkpoint snapshot rate limit
	// (0 keeps harness.DefaultFlushInterval).
	FlushInterval time.Duration
	// RepairJournal quarantines (rather than refuses) snapshot chunks that
	// fail the resume cross-check.
	RepairJournal bool
	// OnJournal observes the live journal writer as soon as it exists
	// (e.g. to feed /debug/status).
	OnJournal func(*journal.Writer)
}

// Campaign is one open campaign: its artifacts and their lifecycle state.
type Campaign struct {
	// Plan is nil for unkeyed campaigns (legacy explicit paths).
	Plan *Plan
	opts Options

	cp *harness.Store
	jw *journal.Writer

	// Keyed state.
	st    *cstore.Store
	dir   string
	claim *cstore.Claim
	// hitStore / hitResult serve a pure cache hit: the exact entry's sealed
	// checkpoint (re-reduced by Run), or its stored perf result.
	hit       *cstore.Entry
	hitStore  *harness.Store
	hitResult *scenario.Result

	rec           harness.CampaignRecord
	crossVerified int
	start         time.Time
	closed        bool
}

// Store returns the checkpoint store Run attaches (nil when the campaign
// keeps no checkpoint).
func (c *Campaign) Store() *harness.Store { return c.cp }

// Journal returns the live journal writer (nil when no journal is kept).
func (c *Campaign) Journal() *journal.Writer { return c.jw }

// CrossVerified returns how many snapshot chunks the resume cross-check
// verified against the journal.
func (c *Campaign) CrossVerified() int { return c.crossVerified }

// CacheHit reports whether Open resolved the campaign to a completed store
// entry (Run will execute zero trials).
func (c *Campaign) CacheHit() bool { return c.hit != nil }

// Record returns the campaign's manifest record (zero Key for unkeyed
// campaigns).
func (c *Campaign) Record() harness.CampaignRecord { return c.rec }

// UnkeyedConfig mirrors the legacy explicit-path flags: a checkpoint file,
// an optional journal beside it, and the resume policy. Records are the
// scenarios the run will execute, embedded in the journal's open record so
// "relaxfault verify" is self-contained.
type UnkeyedConfig struct {
	Checkpoint string
	Journal    string
	Resume     bool
	Seed       uint64
	Records    []harness.ScenarioRecord
}

// OpenUnkeyed wires a campaign from explicit artifact paths — the
// -checkpoint/-journal flag behavior. Both paths are optional; with
// neither, the campaign is a plain uncheckpointed run.
func OpenUnkeyed(cfg UnkeyedConfig, opts Options) (*Campaign, error) {
	c := &Campaign{opts: opts, start: time.Now()}
	if cfg.Checkpoint != "" {
		cp, err := harness.OpenStore(cfg.Checkpoint, cfg.Resume)
		if err != nil {
			return nil, err
		}
		c.attachStore(cp)
	}
	if cfg.Journal != "" {
		if err := c.openJournal(cfg.Journal, cfg.Resume, cfg.Seed, cfg.Records); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Open resolves plan against the store and wires the campaign: a pure
// cache hit on the exact completed entry, a resume seeded from a covering
// or smaller completed entry (or from this entry's own crashed attempt),
// or a fresh run. The entry directory is claimed for writing in every
// non-hit case; a live claim by another process is a clean error.
func Open(plan *Plan, st *cstore.Store, opts Options) (*Campaign, error) {
	c := &Campaign{Plan: plan, opts: opts, st: st, start: time.Now()}
	c.rec = harness.CampaignRecord{
		Key: plan.Key, Seed: plan.Seed, Scenario: plan.Scenario.Name,
		Fingerprint: plan.Record.Fingerprint, StoreRoot: st.Root(),
		Trials: plan.Trials, Source: harness.CampaignComputed,
	}
	openStart := opts.Trace.Now()
	defer func() { opts.Trace.Span(runtrace.TrackMain, "campaign.open", -1, 0, openStart) }()

	exact, cover, seedE, err := st.Lookup(plan.Key, plan.Seed, plan.Trials)
	if err != nil {
		return nil, err
	}
	forceFresh := false
	if exact != nil {
		if err := c.openHit(exact); err == nil {
			cm.hits.Inc()
			return c, nil
		} else {
			fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d/t%d: cached entry unusable (%v); recomputing\n",
				plan.Key, plan.Seed, plan.Trials, err)
			// The directory holds a complete-but-unusable entry; ignore its
			// artifacts rather than trying to resume them.
			forceFresh = true
		}
	}
	cm.misses.Inc()

	c.dir = st.EntryDir(plan.Key, plan.Seed, plan.Trials)
	claim, err := st.Claim(c.dir)
	if err != nil {
		return nil, err
	}
	c.claim = claim
	c.rec.Entry = st.Rel(c.dir)

	journalPath := filepath.Join(c.dir, cstore.JournalFile)
	resume := false
	switch {
	case forceFresh:
	case fileExists(journalPath):
		// Our own earlier attempt crashed mid-run (claim was stale): its
		// journal and checkpoint resume exactly like an explicit -resume.
		resume = true
		c.rec.Source = harness.CampaignResumed
	default:
		src := cover
		if src == nil {
			src = seedE
		}
		if src != nil && len(src.Meta.Sections) > 0 {
			seedStart := opts.Trace.Now()
			reused, err := seedArtifacts(c.dir, plan, src, opts.Mon)
			opts.Trace.Span(runtrace.TrackMain, "campaign.seed", -1, 0, seedStart)
			if err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d: cannot seed from t%d (%v); running from scratch\n",
					plan.Key, plan.Seed, src.Meta.Trials, err)
				os.Remove(filepath.Join(c.dir, cstore.CheckpointFile))
				os.Remove(journalPath)
			} else {
				resume = true
				c.rec.Source = harness.CampaignResumed
				c.rec.ReusedChunks = reused
				cm.reused.Add(int64(reused))
			}
		}
	}
	if resume {
		cm.resumes.Inc()
	}

	cp, err := harness.OpenStore(filepath.Join(c.dir, cstore.CheckpointFile), resume)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.attachStore(cp)
	if err := c.openJournalKeyed(journalPath, resume); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Campaign) attachStore(cp *harness.Store) {
	if c.opts.FlushInterval != 0 && c.opts.FlushInterval != harness.DefaultFlushInterval {
		cp.SetFlushInterval(c.opts.FlushInterval)
	}
	cp.SetTracer(c.opts.Trace)
	c.cp = cp
}

// openHit verifies the exact completed entry and adopts it for a pure
// cache hit. For checkpointed kinds the entry's snapshot must pass the
// digest cross-check against its sealed journal; for perf the stored
// result document must match its recorded digest.
func (c *Campaign) openHit(e *cstore.Entry) error {
	if e.Meta.ScenarioFingerprint != c.Plan.Record.Fingerprint {
		// Same elastic budget scalar spelled through different knobs: the
		// entry's section names differ, so the zero-copy path cannot serve
		// it.
		return fmt.Errorf("entry fingerprint %s != scenario %s", e.Meta.ScenarioFingerprint, c.Plan.Record.Fingerprint)
	}
	if c.Plan.Scenario.Kind == scenario.KindPerf {
		raw, err := os.ReadFile(e.Path(cstore.ResultFile))
		if err != nil {
			return err
		}
		if d := journal.Digest(raw); d != e.Meta.ResultDigest {
			return fmt.Errorf("result digest %s != recorded %s", d, e.Meta.ResultDigest)
		}
		var res scenario.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		c.hitResult = &res
	} else {
		cp, err := harness.OpenStore(e.Path(cstore.CheckpointFile), true)
		if err != nil {
			return err
		}
		j, err := journal.Load(e.Path(cstore.JournalFile))
		if err != nil {
			return err
		}
		if !j.SealedComplete() {
			return errors.New("entry journal is not sealed complete")
		}
		ccStart := c.opts.Trace.Now()
		res, err := cp.CrossCheck(j, false, c.opts.Mon)
		c.opts.Trace.Span(runtrace.TrackMain, "campaign.crosscheck", -1, 0, ccStart)
		if err != nil {
			return err
		}
		cp.SetTracer(c.opts.Trace)
		c.hitStore = cp
		c.rec.VerifiedChunks = res.Verified
		c.crossVerified = res.Verified
	}
	c.hit = e
	c.rec.Source = harness.CampaignCacheHit
	c.rec.Entry = c.st.Rel(e.Dir)
	fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d/t%d: cache hit (%d chunk(s) verified)\n",
		c.Plan.Key, c.Plan.Seed, c.Plan.Trials, c.rec.VerifiedChunks)
	return nil
}

// openJournalKeyed opens (or resumes) the keyed entry's journal with the
// plan's record as the sole embedded campaign.
func (c *Campaign) openJournalKeyed(path string, resume bool) error {
	if !resume {
		// A fresh run must not inherit a dead attempt's artifacts.
		os.Remove(path)
	}
	return c.openJournalWith(path, resume, c.Plan.Seed, []harness.ScenarioRecord{c.Plan.Record})
}

// openJournal opens (or resumes) an explicit-path journal.
func (c *Campaign) openJournal(path string, resume bool, seed uint64, records []harness.ScenarioRecord) error {
	if _, err := os.Stat(path); err != nil {
		resume = false
	}
	return c.openJournalWith(path, resume, seed, records)
}

func (c *Campaign) openJournalWith(path string, resume bool, seed uint64, records []harness.ScenarioRecord) error {
	camps := make([]journal.Campaign, len(records))
	for i, r := range records {
		camps[i] = journal.Campaign{
			Name: r.Name, Fingerprint: r.Fingerprint,
			Technology: r.Technology, TechFingerprint: r.TechFingerprint,
			Spec: r.Spec,
		}
	}
	var w *journal.Writer
	if resume {
		rw, loaded, err := journal.Resume(path)
		if err != nil {
			return err
		}
		ccStart := c.opts.Trace.Now()
		res, err := c.cp.CrossCheck(loaded, c.opts.RepairJournal, c.opts.Mon)
		c.opts.Trace.Span(runtrace.TrackMain, "resume.crosscheck", -1, 0, ccStart)
		if err != nil {
			rw.Close()
			return err
		}
		c.crossVerified = res.Verified
		c.rec.VerifiedChunks = res.Verified
		fmt.Fprintf(os.Stderr, "relaxfault: journal cross-check: %d chunk(s) verified, %d quarantined, %d foreign section(s)\n",
			res.Verified, len(res.Quarantined), res.ForeignSections)
		err = rw.Append(journal.Record{
			Type: journal.TypeResume, Schema: journal.Schema,
			Seed: seed, Campaigns: camps,
		})
		if err != nil {
			rw.Close()
			return err
		}
		w = rw
	} else {
		cw, err := journal.Create(path)
		if err != nil {
			return err
		}
		err = cw.Append(journal.Record{
			Type: journal.TypeOpen, Schema: journal.Schema,
			Seed: seed, Campaigns: camps,
		})
		if err != nil {
			cw.Close()
			return err
		}
		w = cw
	}
	w.SetTracer(c.opts.Trace)
	if c.opts.OnJournal != nil {
		c.opts.OnJournal(w)
	}
	c.jw = w
	c.cp.AttachJournal(w)
	return nil
}

// Run executes the campaign. A cache hit re-reduces the verified entry
// checkpoint (or returns the stored perf result): every chunk resumes,
// zero trials execute, and the result is byte-identical to the run that
// produced the entry. Otherwise the scenario runs normally against the
// campaign's checkpoint and journal.
func (c *Campaign) Run(ctx context.Context) (*scenario.Result, error) {
	if c.hitResult != nil {
		return c.hitResult, nil
	}
	ex := scenario.Exec{
		Workers: c.opts.Workers, Mon: c.opts.Mon, Trace: c.opts.Trace,
	}
	if c.hitStore != nil {
		ex.Store = c.hitStore
	} else {
		ex.Store = c.cp
	}
	sc := c.Plan.Scenario
	return scenario.RunCtx(ctx, sc, ex)
}

// Seal finishes a keyed campaign: the checkpoint is flushed, the journal
// sealed ("complete" on success, "interrupted" so a later open can resume
// otherwise), and on success the entry's result document, manifest, and
// metadata are written — the atomic metadata write is what flips the entry
// to complete. Cache hits have nothing to seal.
func (c *Campaign) Seal(res *scenario.Result, runErr error, interrupted bool) error {
	defer c.Close()
	if c.hit != nil || c.Plan == nil {
		return nil
	}
	var errs []error
	if c.cp != nil {
		if err := c.cp.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	status := journal.StatusComplete
	if interrupted || runErr != nil {
		status = journal.StatusInterrupted
	}
	if err := c.jw.Seal(status); err != nil {
		errs = append(errs, fmt.Errorf("sealing journal: %w", err))
	}
	if runErr != nil || interrupted || len(errs) > 0 {
		return errors.Join(errs...)
	}

	meta := cstore.Meta{
		Key: c.Plan.Key, Seed: c.Plan.Seed, Trials: c.Plan.Trials,
		Name:                c.Plan.Scenario.Name,
		ScenarioFingerprint: c.Plan.Record.Fingerprint,
		Stopped:             stopped(res),
		Sections:            metaSections(c.Plan.Sections),
		Status:              cstore.StatusComplete,
		WallSeconds:         time.Since(c.start).Seconds(),
	}
	if c.Plan.Scenario.Kind == scenario.KindPerf && res != nil {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if err := cstore.WriteFileAtomic(filepath.Join(c.dir, cstore.ResultFile), raw); err != nil {
			return err
		}
		meta.ResultDigest = journal.Digest(raw)
	}
	man := harness.NewManifest()
	man.Experiments = []string{c.Plan.Scenario.Name}
	man.Seed = c.Plan.Seed
	man.Fingerprint = c.Plan.Record.Fingerprint
	man.Checkpoint = filepath.Join(c.dir, cstore.CheckpointFile)
	man.Journal = filepath.Join(c.dir, cstore.JournalFile)
	man.JournalSealed = c.jw.Sealed()
	man.JournalChunks = c.jw.ChunkRecords()
	man.JournalVerifiedChunks = c.crossVerified
	man.Scenarios = []harness.ScenarioRecord{c.Plan.Record}
	man.Campaigns = []harness.CampaignRecord{c.rec}
	man.Finish()
	if err := man.WriteFile(filepath.Join(c.dir, cstore.ManifestFile)); err != nil {
		return err
	}
	return cstore.WriteMeta(c.dir, meta)
}

// Close releases the campaign's claim and journal. Idempotent; Seal calls
// it, and callers that bail out before Seal should call it too.
func (c *Campaign) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.jw != nil {
		c.jw.Close()
	}
	if c.claim != nil {
		if err := c.claim.Release(); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		}
	}
}

// stopped reports whether every reliability cell's sequential stopping
// rule fired — the condition under which the entry's answer is final for
// every larger trial budget too.
func stopped(res *scenario.Result) bool {
	if res == nil || len(res.Reliability) == 0 {
		return false
	}
	for _, r := range res.Reliability {
		if r.Estimator == nil || !r.Estimator.Stopped {
			return false
		}
	}
	return true
}

func metaSections(secs []scenario.SectionInfo) []cstore.SectionMeta {
	out := make([]cstore.SectionMeta, len(secs))
	for i, s := range secs {
		out[i] = cstore.SectionMeta{
			Name: s.Name, Fingerprint: s.Fingerprint,
			ChunkSize: s.ChunkSize, TotalTrials: s.TotalTrials,
		}
	}
	return out
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// RunStore is the whole keyed lifecycle in one call: plan, open against
// the store, run, seal. Static scenarios (and a nil store) bypass the
// store and run directly; the returned record is nil in that case.
func RunStore(ctx context.Context, sc *scenario.Scenario, st *cstore.Store, opts Options) (*scenario.Result, *harness.CampaignRecord, error) {
	if st == nil || sc.Kind == scenario.KindStatic {
		res, err := scenario.RunCtx(ctx, sc, scenario.Exec{
			Workers: opts.Workers, Mon: opts.Mon, Trace: opts.Trace,
		})
		return res, nil, err
	}
	plan, err := NewPlan(sc)
	if err != nil {
		return nil, nil, err
	}
	c, err := Open(plan, st, opts)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	res, runErr := c.Run(ctx)
	interrupted := runErr != nil &&
		(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if err := c.Seal(res, runErr, interrupted); err != nil && runErr == nil {
		runErr = err
	}
	rec := c.Record()
	return res, &rec, runErr
}
