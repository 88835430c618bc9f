// Package campaign owns the lifecycle of one simulation campaign: Plan
// derives the canonical campaign key from a resolved scenario, Open
// resolves it against a content-addressed result store and wires the
// campaign log and telemetry, Run drives the scenario runner, and Seal
// freezes the log and records the campaign's store coordinates for the run
// manifest.
//
// A campaign's one durable artifact is its log (package journal), kept in
// its store entry: every completed chunk is appended with its payload, and
// the harness.Store the runner checkpoints into is the in-memory view
// rebuilt from the log. A scenario that checkpoints nothing (perf and
// static scenarios) has no chunks to log, so it is no campaign: RunStore
// runs it as if there were no store, and Open refuses it.
//
// Campaigns are budget-aware. The campaign key hashes the scenario
// with its elastic trial-budget axes cleared (scenario.CampaignFingerprint),
// so store entries computed at different budgets share a key and serve
// each other: an entry at the exact budget is a pure cache hit (its sealed
// log is opened read-only with every payload checked against its digest,
// then re-reduced — zero trials execute and nothing is written); a
// completed larger budget or a sequentially-stopped run seeds a resume that
// reuses every chunk; and a smaller completed budget seeds a resume that
// computes only the missing tail, byte-identical to a from-scratch run at
// the new budget.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	Sections []harness.Section
	Record   journal.Campaign
}

// NewPlan lowers sc, which validates it, and derives its campaign plan.
func NewPlan(sc *scenario.Scenario) (*Plan, error) {
	low, err := sc.Lower()
	if err != nil {
		return nil, err
	}
	key, err := sc.CampaignFingerprint()
	if err != nil {
		return nil, err
	}
	rec, err := sc.Record()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Scenario: sc, Key: key, Seed: *sc.Seed, Trials: sc.BudgetTrials(),
		Sections: low.Sections(), Record: rec,
	}, nil
}

// Options is the execution environment a campaign runs in. None of it
// affects results. Open ignores its Store: the campaign's own log view
// takes its place.
type Options = harness.Exec

// Campaign is one open campaign: its log and its lifecycle state.
type Campaign struct {
	Plan *Plan
	// ex is the environment Run executes in. Its Store is the view over
	// the campaign log, read-only for a cache hit.
	ex harness.Exec

	st    *cstore.Store
	dir   string
	claim *cstore.Claim
	// hit is the exact completed entry serving a cache hit.
	hit *cstore.Entry

	rec    harness.CampaignRecord
	start  time.Time
	closed bool
}

// Record returns the campaign's manifest record.
func (c *Campaign) Record() harness.CampaignRecord { return c.rec }

// Open resolves plan against the store and wires the campaign: a pure
// cache hit on the exact completed entry, a resume of this entry's own
// crashed attempt, a run seeded from a covering or smaller completed entry,
// or a fresh run. The entry directory is claimed for writing in every
// non-hit case; a live claim by another process is a clean error. A plan
// with no checkpoint sections has nothing to log: Open refuses it and
// touches nothing.
func Open(plan *Plan, st *cstore.Store, opts Options) (*Campaign, error) {
	if len(plan.Sections) == 0 {
		return nil, fmt.Errorf("campaign %s: scenario %s checkpoints nothing, so it has no store entry", plan.Key, plan.Scenario.Name)
	}
	opts.Store = nil
	c := &Campaign{Plan: plan, ex: opts, st: st, start: time.Now()}
	c.rec = harness.CampaignRecord{
		Key: plan.Key, Seed: plan.Seed, Scenario: plan.Scenario.Name,
		Fingerprint: plan.Record.Fingerprint, StoreRoot: st.Root(),
		Trials: plan.Trials, Source: harness.CampaignComputed,
	}
	openStart := opts.Trace.Now()
	defer func() { opts.Trace.Span(runtrace.TrackMain, "campaign.open", -1, 0, openStart) }()

	exact, src, err := st.Lookup(plan.Key, plan.Seed, plan.Trials)
	if err != nil {
		return nil, err
	}
	if exact != nil {
		err := c.openHit(exact)
		if err == nil {
			cm.hits.Inc()
			return c, nil
		}
		fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d/t%d: cached entry unusable (%v); recomputing\n",
			plan.Key, plan.Seed, plan.Trials, err)
	}
	cm.misses.Inc()

	c.dir = st.EntryDir(plan.Key, plan.Seed, plan.Trials)
	claim, err := st.Claim(c.dir)
	if err != nil {
		return nil, err
	}
	c.claim = claim
	c.rec.Entry = st.Rel(c.dir)
	logPath := filepath.Join(c.dir, cstore.CheckpointFile)
	if exact != nil {
		// Retract the unusable entry's completeness marker before anything
		// is rewritten, then its untrusted log: a recompute that dies then
		// leaves an ordinary in-progress entry, which the next Open resumes.
		for _, path := range []string{exact.Path(cstore.MetaFile), logPath} {
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				c.Close()
				return nil, err
			}
		}
	}

	// A log without an entry is an earlier attempt that died mid-run (its
	// claim was stale): it resumes. The store owns its entry logs, so one
	// that cannot resume — empty, of a retired format, sealed complete, or
	// failing its digest checks — is removed and recomputed.
	existed := fileExists(logPath)
	err = c.openLog(logPath)
	if err != nil && existed {
		fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d/t%d: entry log unusable (%v); recomputing\n",
			plan.Key, plan.Seed, plan.Trials, err)
		if err = os.Remove(logPath); err == nil {
			err = c.openLog(logPath)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	// A log that holds no chunk resumes nothing: its run starts like a
	// fresh entry's, seeded from src when there is one.
	switch {
	case c.rec.VerifiedChunks > 0:
		c.rec.Source = harness.CampaignResumed
	case src != nil:
		seedStart := opts.Trace.Now()
		reused, err := c.seedFrom(src)
		opts.Trace.Span(runtrace.TrackMain, "campaign.seed", -1, 0, seedStart)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d: cannot seed from t%d (%v); computing the rest from scratch\n",
				plan.Key, plan.Seed, src.Meta.Trials, err)
			break
		}
		c.rec.Source = harness.CampaignResumed
		c.rec.ReusedChunks = reused
		cm.reused.Add(int64(reused))
	}
	if c.rec.Source == harness.CampaignResumed {
		cm.resumes.Inc()
	}
	return c, nil
}

// openHit verifies the exact completed entry and adopts it for a pure
// cache hit: its sealed log is opened as a read-only view, every payload
// checked against its digest.
func (c *Campaign) openHit(e *cstore.Entry) error {
	if e.Meta.ScenarioFingerprint != c.Plan.Record.Fingerprint {
		// Same elastic budget scalar spelled through different knobs: the
		// entry's section names differ, so the zero-copy path cannot serve
		// it.
		return fmt.Errorf("entry fingerprint %s != scenario %s", e.Meta.ScenarioFingerprint, c.Plan.Record.Fingerprint)
	}
	if !slices.Equal(e.Meta.Sections, c.Plan.Sections) {
		// A code change renamed a section: the entry's log holds no chunk
		// of the plan's sections, so a hit would recompute every trial and
		// keep none of them.
		return errors.New("entry sections differ from the plan's")
	}
	cp, err := readLog(e)
	if err != nil {
		return err
	}
	c.ex.Store = cp
	c.rec.VerifiedChunks = cp.Verified()
	c.hit = e
	c.rec.Source = harness.CampaignCacheHit
	c.rec.Entry = c.st.Rel(e.Dir)
	fmt.Fprintf(os.Stderr, "relaxfault: campaign %s/%d/t%d: cache hit (%d chunk(s) verified)\n",
		c.Plan.Key, c.Plan.Seed, c.Plan.Trials, c.rec.VerifiedChunks)
	return nil
}

// readLog opens a completed entry's sealed log as a read-only view, every
// payload checked against its digest.
func readLog(e *cstore.Entry) (*harness.Store, error) {
	j, err := journal.Load(e.Path(cstore.CheckpointFile))
	if err != nil {
		return nil, err
	}
	if !j.SealedComplete() {
		return nil, errors.New("entry log is not sealed complete")
	}
	return harness.LoadStore(j, nil)
}

// openLog opens the campaign log at path — starting it, or resuming an
// existing one — with the plan's scenario embedded in its open or resume
// record, which is what makes "relaxfault verify" self-contained.
func (c *Campaign) openLog(path string) error {
	cp, err := harness.OpenStore(path, journal.Record{Seed: c.Plan.Seed, Campaigns: []journal.Campaign{c.Plan.Record}})
	if err != nil {
		return err
	}
	if cp.Verified() > 0 {
		fmt.Fprintf(os.Stderr, "relaxfault: resuming %s: %d logged chunk(s) verified\n", path, cp.Verified())
	}
	w := cp.Journal()
	w.SetTracer(c.ex.Trace)
	c.ex.Mon.SetJournal(w)
	c.ex.Store = cp
	c.rec.VerifiedChunks = cp.Verified()
	return nil
}

// Run executes the campaign. A cache hit re-reduces the verified entry's
// view: every chunk resumes, zero trials execute, and the result is
// byte-identical to the run that produced the entry. Otherwise the
// scenario runs normally, logging every chunk it computes.
func (c *Campaign) Run(ctx context.Context) (*scenario.Result, error) {
	return scenario.RunCtx(ctx, c.Plan.Scenario, c.ex)
}

// Seal finishes the campaign: the log is sealed ("complete" on
// success, "interrupted" so a later open can resume otherwise), and on
// success the entry's metadata is written — the atomic metadata write is
// what flips the entry to complete. Cache hits have nothing to seal.
func (c *Campaign) Seal(res *scenario.Result, runErr error, interrupted bool) error {
	defer c.Close()
	if c.hit != nil {
		return nil
	}
	status := journal.StatusComplete
	if interrupted || runErr != nil {
		status = journal.StatusInterrupted
	}
	if err := c.ex.Store.Journal().Seal(status); err != nil {
		return fmt.Errorf("sealing campaign log: %w", err)
	}
	if status != journal.StatusComplete {
		return nil
	}

	return cstore.WriteMeta(c.dir, cstore.Meta{
		Key: c.Plan.Key, Seed: c.Plan.Seed, Trials: c.Plan.Trials,
		Name:                c.Plan.Scenario.Name,
		ScenarioFingerprint: c.Plan.Record.Fingerprint,
		Version:             harness.BuildVersion(),
		Stopped:             stopped(res),
		Sections:            c.Plan.Sections,
		Status:              cstore.StatusComplete,
		WallSeconds:         time.Since(c.start).Seconds(),
	})
}

// Close releases the campaign's claim and log. Idempotent; Seal calls it,
// and callers that bail out before Seal should call it too.
func (c *Campaign) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.ex.Store.Journal().Close()
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

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// RunStore is the whole lifecycle in one call: plan, open against the
// store, run, seal. Without a store, or for a scenario with no checkpoint
// sections (perf and static scenarios), it runs sc directly in opts,
// keeps no entry and returns a nil record.
func RunStore(ctx context.Context, sc *scenario.Scenario, st *cstore.Store, opts Options) (*scenario.Result, *harness.CampaignRecord, error) {
	var plan *Plan
	if st != nil {
		var err error
		if plan, err = NewPlan(sc); err != nil {
			return nil, nil, err
		}
	}
	if plan == nil || len(plan.Sections) == 0 {
		res, err := scenario.RunCtx(ctx, sc, opts)
		return res, nil, err
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
