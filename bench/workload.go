package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"relaxfault/internal/campaign"
	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/harness"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

// The campaign workload's lifecycle: a cold step at a quarter of the spec's
// replica budget, an extend step at the full budget that resumes from the
// cold entry and stops on its CI target, then verified cache hits of the
// extend entry.
const (
	coldDivisor  = 4
	campaignHits = 20
)

// workload is one benchmark input and the public calls that run it: the
// ones `relaxfault -scenario` makes (scenario.Decode, Validate, Lower,
// RunCtx), or for the campaign workload the ones `-store` makes
// (campaign.NewPlan, Open, Run, Seal).
type workload struct {
	name     string
	spec     []byte
	workers  int
	storeDir string
}

// setupOut is a scenario resolved up to its first trial.
type setupOut struct {
	sc    *scenario.Scenario
	low   *scenario.Lowered
	plan  *campaign.Plan
	lower time.Duration
}

// setup is the work before the first trial: Decode (which validates), Lower,
// and for the campaign workload NewPlan, at the given scenario seed. The
// spec's replica budget is divided by divisor. It is one bench.setup span on
// tr.
func (w *workload) setup(tr *runtrace.Recorder, seed uint64, divisor int) (setupOut, error) {
	defer tr.Span(runtrace.TrackMain, "bench.setup", -1, 0, tr.Now())
	var out setupOut
	sc, err := scenario.Decode(w.spec)
	if err != nil {
		return out, err
	}
	sc.Seed = &seed
	sc.Budget.Replicas /= divisor
	t0 := time.Now()
	out.low, err = sc.Lower()
	out.lower = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.sc = sc
	if w.name == "campaign" {
		out.plan, err = campaign.NewPlan(sc)
	}
	return out, err
}

// firstDivisor is the replica divisor of the workload's first set-up: the
// campaign starts with its cold step.
func (w *workload) firstDivisor() int {
	if w.name == "campaign" {
		return coldDivisor
	}
	return 1
}

// legOut is what one leg computed.
type legOut struct {
	low *scenario.Lowered
	// results are the computed results in step order (cold then extend on
	// the campaign workload); the last is the one the per-layer metrics
	// read. hits are the campaign's cache-hit results.
	results []*scenario.Result
	hits    []*scenario.Result
	// folded counts the trials the leg computed that its results fold in
	// (resumed trials and discarded speculative ones excluded).
	folded int64
	// Campaign steps: cold + extend time, each hit's time, the extend
	// step's store record, the chunks a hit verified, and the size of the
	// extend entry's checkpoint.
	timeToCI        time.Duration
	hitTimes        []time.Duration
	extend          harness.CampaignRecord
	hitVerified     int
	checkpointBytes int64
}

// leg runs the workload once at the given scenario seed. Bench-side spans
// (bench.setup, bench.open, bench.run, bench.seal) go to tr's main track so
// the ledger can place every public call; tr may be nil.
func (w *workload) leg(ctx context.Context, seed uint64, tr *runtrace.Recorder, mon *harness.Monitor) (*legOut, error) {
	if w.name == "campaign" {
		return w.campaignLeg(ctx, seed, tr, mon)
	}
	s, err := w.setup(tr, seed, 1)
	if err != nil {
		return nil, err
	}
	out := &legOut{low: s.low}
	runStart := tr.Now()
	res, err := scenario.RunCtx(ctx, s.sc, scenario.Exec{Workers: w.workers, Mon: mon, Trace: tr})
	tr.Span(runtrace.TrackMain, "bench.run", -1, 0, runStart)
	if err != nil {
		return nil, err
	}
	out.results = []*scenario.Result{res}
	out.folded = foldedTrials(res, s.low)
	return out, nil
}

// campaignLeg runs the cold, extend and hit steps against a fresh store.
func (w *workload) campaignLeg(ctx context.Context, seed uint64, tr *runtrace.Recorder, mon *harness.Monitor) (*legOut, error) {
	if err := os.RemoveAll(w.storeDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.storeDir)
	st, err := cstore.Open(w.storeDir)
	if err != nil {
		return nil, err
	}
	opts := campaign.Options{Workers: w.workers, Mon: mon, Trace: tr}
	step := func(plan *campaign.Plan) (*scenario.Result, harness.CampaignRecord, error) {
		openStart := tr.Now()
		c, err := campaign.Open(plan, st, opts)
		tr.Span(runtrace.TrackMain, "bench.open", -1, 0, openStart)
		if err != nil {
			return nil, harness.CampaignRecord{}, err
		}
		runStart := tr.Now()
		res, runErr := c.Run(ctx)
		tr.Span(runtrace.TrackMain, "bench.run", -1, 0, runStart)
		sealStart := tr.Now()
		err = c.Seal(res, runErr, false)
		tr.Span(runtrace.TrackMain, "bench.seal", -1, 0, sealStart)
		if runErr != nil {
			err = runErr
		}
		return res, c.Record(), err
	}

	t0 := time.Now()
	cold, err := w.setup(tr, seed, coldDivisor)
	if err != nil {
		return nil, err
	}
	coldRes, _, err := step(cold.plan)
	if err != nil {
		return nil, fmt.Errorf("cold step: %w", err)
	}
	ext, err := w.setup(tr, seed, 1)
	if err != nil {
		return nil, err
	}
	extRes, extRec, err := step(ext.plan)
	if err != nil {
		return nil, fmt.Errorf("extend step: %w", err)
	}
	out := &legOut{
		low:     ext.low,
		results: []*scenario.Result{coldRes, extRes},
		folded: foldedTrials(coldRes, cold.low) + foldedTrials(extRes, ext.low) -
			int64(extRec.ReusedChunks*relsim.RunChunkSize),
		timeToCI: time.Since(t0),
		extend:   extRec,
	}
	if fi, err := os.Stat(filepath.Join(st.EntryDir(ext.plan.Key, ext.plan.Seed, ext.plan.Trials), cstore.CheckpointFile)); err == nil {
		out.checkpointBytes = fi.Size()
	}

	for i := 0; i < campaignHits; i++ {
		t := time.Now()
		planStart := tr.Now()
		plan, err := campaign.NewPlan(ext.sc)
		tr.Span(runtrace.TrackMain, "bench.setup", -1, 0, planStart)
		if err != nil {
			return nil, err
		}
		res, rec, err := step(plan)
		out.hitTimes = append(out.hitTimes, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("hit %d: %w", i, err)
		}
		if rec.Source != harness.CampaignCacheHit {
			return nil, fmt.Errorf("hit %d: campaign source %q, want %q", i, rec.Source, harness.CampaignCacheHit)
		}
		out.hits = append(out.hits, res)
		out.hitVerified = rec.VerifiedChunks
	}
	return out, nil
}

// digest is the leg's output digest: the hash of its results' digests. Every
// cache hit must reproduce the last computed result exactly.
func (o *legOut) digest() (string, error) {
	parts := make([]string, len(o.results))
	for i, res := range o.results {
		d, err := resultDigest(res)
		if err != nil {
			return "", err
		}
		parts[i] = d
	}
	for i, res := range o.hits {
		d, err := resultDigest(res)
		if err != nil {
			return "", err
		}
		if want := parts[len(parts)-1]; d != want {
			return "", fmt.Errorf("cache hit %d: result digest %s differs from the computed %s", i, d, want)
		}
	}
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// foldedTrials counts the trials a result aggregates: every coverage node
// sampled up to the faulty-node target, and every reliability trial up to
// the budget or the stopping cutoff.
func foldedTrials(res *scenario.Result, low *scenario.Lowered) int64 {
	var n int64
	for _, c := range res.Coverage {
		n += int64(c.TotalNodes)
	}
	for i, r := range res.Reliability {
		if r.Estimator != nil {
			n += r.Estimator.Trials
		} else {
			n += int64(low.Reliability[i].TotalTrials())
		}
	}
	return n
}

// resultDigest hashes a result at full precision: the rendered tables, the JSON of
// the coverage, reliability and perf results, and each coverage curve's
// statistics as float bits. The curve tallies are unexported, so the JSON of
// a coverage result alone would carry only its node counts.
func resultDigest(res *scenario.Result) (string, error) {
	h := sha256.New()
	io.WriteString(h, res.String())
	for _, v := range []any{res.Coverage, res.Reliability, res.Perf} {
		b, err := json.Marshal(v)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
	}
	for _, cov := range res.Coverage {
		for _, c := range cov.Curves {
			fmt.Fprintf(h, "%s/%d", c.Planner, c.WayLimit)
			for _, v := range []float64{c.Coverage(), float64(c.FaultyNodes()),
				c.CapacityQuantile(0.5), c.CapacityQuantile(0.9), c.CapacityQuantile(0.99)} {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
