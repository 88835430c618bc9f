package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/relsim"
	"relaxfault/internal/scenario"
)

// covScenario is a small coverage campaign: 10x FIT so a couple of 2048-
// node chunks satisfy the faulty-node budget, which keeps every test run
// under a second while leaving a tail to extend into at larger budgets.
func covScenario(t *testing.T, budget int) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{
		Name:   "cov-test",
		Kind:   scenario.KindCoverage,
		Budget: scenario.Budget{FaultyNodes: budget},
		Fault:  &scenario.FaultSpec{FITScale: 10},
		Coverage: &scenario.CoverageSpec{Studies: []scenario.CoverageStudy{{
			Planners:  []scenario.PlannerSpec{{Kind: "relaxfault"}},
			WayLimits: []int{1},
		}}},
	}
	if _, err := sc.Lower(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// relScenario is a small reliability campaign; a non-zero targetCI adds
// Chow–Robbins sequential stopping.
func relScenario(t *testing.T, replicas int, targetCI float64) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{
		Name:   "rel-test",
		Kind:   scenario.KindReliability,
		Budget: scenario.Budget{Nodes: 9000, Replicas: replicas},
		Fault:  &scenario.FaultSpec{FITScale: 10},
		Reliability: &scenario.ReliabilitySpec{
			Cells: []scenario.ReliabilityCell{{Label: "no-repair", Policy: "replace-after-due"}},
		},
	}
	if targetCI != 0 {
		sc.Statistics = &relsim.StatsConfig{Estimator: "naive", TargetCI: targetCI, MinTrials: 100}
	}
	if _, err := sc.Lower(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// runKeyed executes sc through the keyed campaign lifecycle with a fresh
// monitor and returns the rendered result, the campaign record, and how
// many trials this run actually executed.
func runKeyed(t *testing.T, sc *scenario.Scenario, st *cstore.Store) (string, *harness.CampaignRecord, int64) {
	t.Helper()
	mon := harness.NewMonitor(io.Discard, 0)
	res, rec, err := RunStore(context.Background(), sc, st, Options{Mon: mon})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("RunStore returned no campaign record")
	}
	return res.String(), rec, mon.DoneTrials()
}

func TestExactBudgetCacheHit(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out1, rec1, done1 := runKeyed(t, covScenario(t, 200), st)
	if rec1.Source != harness.CampaignComputed {
		t.Fatalf("first run source = %q, want computed", rec1.Source)
	}
	if done1 == 0 {
		t.Fatal("first run executed no trials")
	}

	out2, rec2, done2 := runKeyed(t, covScenario(t, 200), st)
	if rec2.Source != harness.CampaignCacheHit {
		t.Fatalf("second run source = %q, want cache-hit", rec2.Source)
	}
	if done2 != 0 {
		t.Errorf("cache hit executed %d trials, want 0", done2)
	}
	if rec2.VerifiedChunks == 0 {
		t.Error("cache hit verified no chunks")
	}
	if out1 != out2 {
		t.Errorf("cache hit output differs from the computed run:\n%s\nvs\n%s", out1, out2)
	}
	if rec1.Key != rec2.Key || rec1.Entry != rec2.Entry {
		t.Errorf("hit resolved to a different entry: %+v vs %+v", rec1, rec2)
	}
}

// TestSealedEntryKeepsOneRecord: a sealed entry directory holds exactly
// its metadata, stamped with the computing binary's version, and its
// campaign log; no second record of the campaign sits beside them.
func TestSealedEntryKeepsOneRecord(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, rec, _ := runKeyed(t, covScenario(t, 200), st)
	des, err := os.ReadDir(filepath.Join(rec.StoreRoot, rec.Entry))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	if want := []string{cstore.CheckpointFile, cstore.MetaFile}; !slices.Equal(names, want) {
		t.Errorf("entry holds %q, want %q", names, want)
	}
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("%d entries, want 1", len(es))
	}
	if m := es[0].Meta; m.Version == "" || m.Version != harness.BuildVersion() || len(m.Sections) == 0 {
		t.Errorf("entry metadata version %q sections %v, want version %q and the plan's sections",
			m.Version, m.Sections, harness.BuildVersion())
	}
}

// TestLargerBudgetCovers: a completed larger-budget entry satisfies a
// smaller request without executing any trials — its chunks seed the new
// entry and the runner only re-reduces them.
func TestLargerBudgetCovers(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runKeyed(t, covScenario(t, 400), st)

	// Reference output for the smaller budget, from scratch.
	scratch, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := runKeyed(t, covScenario(t, 100), scratch)

	out, rec, done := runKeyed(t, covScenario(t, 100), st)
	if rec.Source != harness.CampaignResumed {
		t.Fatalf("covered request source = %q, want resumed", rec.Source)
	}
	if rec.ReusedChunks == 0 {
		t.Error("covered request reused no chunks")
	}
	if done != 0 {
		t.Errorf("covered request executed %d trials, want 0", done)
	}
	if out != want {
		t.Errorf("covered request output differs from scratch:\n%s\nvs\n%s", out, want)
	}

	// The seeded entry sealed at its own budget: the same request again is
	// now an exact hit.
	_, rec2, _ := runKeyed(t, covScenario(t, 100), st)
	if rec2.Source != harness.CampaignCacheHit {
		t.Errorf("repeat source = %q, want cache-hit", rec2.Source)
	}
}

// TestSmallerBudgetSeedsExtend: bumping the budget resumes from the
// largest cached entry, computes only the missing tail, and reproduces the
// from-scratch output byte for byte.
func TestSmallerBudgetSeedsExtend(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, doneSmall := runKeyed(t, covScenario(t, 100), st)

	scratch, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, doneScratch := runKeyed(t, covScenario(t, 400), scratch)

	out, rec, done := runKeyed(t, covScenario(t, 400), st)
	if rec.Source != harness.CampaignResumed {
		t.Fatalf("bumped budget source = %q, want resumed", rec.Source)
	}
	if rec.ReusedChunks == 0 {
		t.Error("bumped budget reused no chunks")
	}
	if done >= doneScratch {
		t.Errorf("bumped budget executed %d trials, want fewer than the %d a scratch run takes", done, doneScratch)
	}
	if done == 0 && doneSmall != doneScratch {
		t.Errorf("bumped budget executed no trials but the budgets differ in work (%d vs %d)", doneSmall, doneScratch)
	}
	if out != want {
		t.Errorf("bumped budget output differs from scratch:\n%s\nvs\n%s", out, want)
	}

	// Replaying the seeded entry's log checks every copied chunk's logged
	// span and payload against a recomputation at the new budget.
	j, err := journal.Load(filepath.Join(rec.StoreRoot, rec.Entry, cstore.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	vrep, err := scenario.VerifyJournal(context.Background(), j, scenario.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() || vrep.Chunks == 0 || vrep.Verified != vrep.Chunks {
		t.Errorf("seeded entry's log does not verify: %s %v", vrep, vrep.Mismatched)
	}
}

// TestStoppedEntryCoversLargerBudget: a run whose sequential stopping rule
// fired is final for every larger trial budget — the bumped request reuses
// it without executing trials and reproduces the same answer.
func TestStoppedEntryCoversLargerBudget(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A huge target CI stops the run right after the warm-up floor.
	_, _, done1 := runKeyed(t, relScenario(t, 1, 100), st)
	if done1 == 0 {
		t.Fatal("stopped run executed no trials")
	}
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || !es[0].Meta.Stopped {
		t.Fatalf("entry not recorded as stopped: %+v", es)
	}

	// Reference output for the tripled replica budget, from scratch: the
	// stopping cutoff is a prefix property, so it lands on the same trials.
	scratch, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, doneScratch := runKeyed(t, relScenario(t, 3, 100), scratch)
	if doneScratch == 0 {
		t.Fatal("scratch run executed no trials")
	}

	// Triple the replica budget: same campaign key, larger elastic budget;
	// the stopped entry serves it without a single trial.
	out2, rec, done2 := runKeyed(t, relScenario(t, 3, 100), st)
	if rec.Source != harness.CampaignResumed {
		t.Fatalf("bumped request source = %q, want resumed", rec.Source)
	}
	if done2 != 0 {
		t.Errorf("bumped request executed %d trials, want 0 (stopping cutoff is a prefix property)", done2)
	}
	if out2 != want {
		t.Errorf("stopped-entry reuse differs from scratch:\n%s\nvs\n%s", out2, want)
	}
}

// TestRunStoreWithoutStore: RunStore is a plain run without a store, and
// under one for a scenario with no checkpoint sections (a perf or static
// scenario has no chunks to log). It returns no campaign record, attaches
// no log, writes no file, under the store root included, and its result
// equals a plain run's.
func TestRunStoreWithoutStore(t *testing.T) {
	preset := func(name string) func(*testing.T) *scenario.Scenario {
		return func(t *testing.T) *scenario.Scenario {
			sc, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Budget.Instructions = 20_000
			return sc
		}
	}
	cases := []struct {
		name  string
		sc    func(*testing.T) *scenario.Scenario
		store bool
	}{
		{"coverage without a store", func(t *testing.T) *scenario.Scenario { return covScenario(t, 100) }, false},
		{"perf under a store", preset("prefetch"), true},
		{"static under a store", preset("tab1"), true},
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			plain, err := scenario.RunCtx(context.Background(), tc.sc(t), scenario.Exec{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			var st *cstore.Store
			root := t.TempDir()
			if tc.store {
				if st, err = cstore.Open(root); err != nil {
					t.Fatal(err)
				}
			}
			mon := harness.NewMonitor(io.Discard, 0)
			res, rec, err := RunStore(context.Background(), tc.sc(t), st, Options{Mon: mon})
			if err != nil {
				t.Fatal(err)
			}
			if rec != nil {
				t.Errorf("RunStore returned campaign record %+v", rec)
			}
			if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want) {
				t.Errorf("RunStore differs from a plain run (%v):\n%s\nvs\n%s", err, got, want)
			}
			if j := mon.Status().Journal; j != nil {
				t.Errorf("RunStore attached a campaign log: %+v", j)
			}
			for _, d := range []string{dir, root} {
				if des, err := os.ReadDir(d); err != nil || len(des) > 0 {
					t.Errorf("RunStore wrote files: %v (%v)", des, err)
				}
			}
		})
	}
}

// TestOpenRefusesUncheckpointed: Open refuses a plan with no checkpoint
// sections, and creates nothing under the store root.
func TestOpenRefusesUncheckpointed(t *testing.T) {
	root := t.TempDir()
	st, err := cstore.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("prefetch")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sections) != 0 {
		t.Fatalf("perf plan has %d section(s), want none", len(plan.Sections))
	}
	if c, err := Open(plan, st, Options{}); err == nil {
		c.Close()
		t.Fatal("Open accepted a plan with no sections")
	}
	if des, err := os.ReadDir(root); err != nil || len(des) > 0 {
		t.Errorf("Open wrote under the store root: %v (%v)", des, err)
	}
}

// TestRenamedSectionsRecompute: an exact entry whose recorded sections no
// longer match the plan's, as after a code change renames a section, is
// recomputed once. It is not served as a hit that recomputes every trial
// and persists none of them on every later run.
func TestRenamedSectionsRecompute(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := runKeyed(t, covScenario(t, 200), st)
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	meta := es[0].Meta
	meta.Sections[0].Fingerprint = "renamed"
	if err := cstore.WriteMeta(es[0].Dir, meta); err != nil {
		t.Fatal(err)
	}

	out, rec, done := runKeyed(t, covScenario(t, 200), st)
	if rec.Source != harness.CampaignComputed || done == 0 {
		t.Fatalf("run over the renamed entry: source %q, %d trials; want a recompute", rec.Source, done)
	}
	if out != want {
		t.Errorf("recompute differs from the first run:\n%s\nvs\n%s", out, want)
	}
	if _, rec, done := runKeyed(t, covScenario(t, 200), st); rec.Source != harness.CampaignCacheHit || done != 0 {
		t.Errorf("run after the recompute: source %q, %d trials; want a cache hit with 0 trials", rec.Source, done)
	}
}

// entryFile is one file of a store entry: its identity and its bytes.
type entryFile struct {
	info os.FileInfo
	data []byte
}

// entryFiles stats and reads every file of the store's only entry.
func entryFiles(t *testing.T, st *cstore.Store) map[string]entryFile {
	t.Helper()
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(es))
	}
	des, err := os.ReadDir(es[0].Dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]entryFile)
	for _, de := range des {
		p := filepath.Join(es[0].Dir, de.Name())
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = entryFile{info, data}
	}
	return out
}

// TestCacheHitWritesNothing: a cache hit is a read. Every file of the entry
// is still the same file with the same bytes afterwards, and none is added.
func TestCacheHitWritesNothing(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runKeyed(t, covScenario(t, 200), st)
	before := entryFiles(t, st)
	if _, rec, _ := runKeyed(t, covScenario(t, 200), st); rec.Source != harness.CampaignCacheHit {
		t.Fatalf("second run source = %q, want cache-hit", rec.Source)
	}
	after := entryFiles(t, st)
	for name, b := range before {
		a, ok := after[name]
		switch {
		case !ok:
			t.Errorf("cache hit removed %s", name)
		case !os.SameFile(a.info, b.info) || !bytes.Equal(a.data, b.data):
			t.Errorf("cache hit rewrote %s", name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("cache hit added %s", name)
		}
	}
}

// TestUnusableEntryRecomputeResumes: an exact entry that fails
// verification is recomputed in place, and a recompute that dies leaves an
// in-progress entry the next open resumes instead of recomputing again.
func TestUnusableEntryRecomputeResumes(t *testing.T) {
	st, err := cstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := func() *scenario.Scenario { return relScenario(t, 4, 0) }
	want, _, _ := runKeyed(t, sc(), st)

	// Unseal the entry's log: without its final seal record the entry is
	// complete but unusable.
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	logPath := es[0].Path(cstore.CheckpointFile)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	unsealed := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
	if err := os.WriteFile(logPath, unsealed, 0o644); err != nil {
		t.Fatal(err)
	}

	// The recompute dies once its first chunks are logged.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mon := harness.NewMonitor(io.Discard, 0)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ctx.Err() == nil {
			if j := mon.Status().Journal; j != nil && j.Chunks >= 2 {
				cancel()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	_, rec, err := RunStore(ctx, sc(), st, Options{Workers: 1, Mon: mon})
	cancel()
	<-watched
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("recompute finished before the cancel landed (err %v); the scenario is too small", err)
	}
	if rec.Source != harness.CampaignComputed {
		t.Fatalf("recompute source = %q, want computed", rec.Source)
	}

	out, rec, done := runKeyed(t, sc(), st)
	if rec.Source != harness.CampaignResumed || rec.VerifiedChunks == 0 {
		t.Fatalf("reopen after the dead recompute: source %q, %d verified chunks; want resumed with verified chunks", rec.Source, rec.VerifiedChunks)
	}
	if done == 0 {
		t.Error("resume executed no trials; the dead recompute cannot have logged them all")
	}
	if out != want {
		t.Errorf("resumed recompute differs from the from-scratch run:\n%s\nvs\n%s", out, want)
	}
}

// rewriteLog rewrites the log at path through the journal writer, applying
// edit to its open and chunk records and dropping its seal. A raw byte edit
// would read as a torn tail; a validly framed lie needs the writer itself.
func rewriteLog(t *testing.T, path string, edit func(rec *journal.Record)) {
	t.Helper()
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range append([]journal.Record{*j.Open}, j.Chunks...) {
		edit(&rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStuckEntryLogRecomputes: the store owns its entry logs, so a log an
// attempt left behind that cannot resume is removed and the entry
// recomputed, instead of failing every later run. The log is empty when
// the attempt died before its open record reached the disk, sealed
// complete when it died between the seal and the entry metadata, holds a
// payload that fails its digest, or is of the retired v1 format.
func TestStuckEntryLogRecomputes(t *testing.T) {
	cases := []struct {
		name string
		edit func(t *testing.T, logPath string)
	}{
		{"empty log", func(t *testing.T, logPath string) {
			if err := os.Truncate(logPath, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"complete-sealed log", func(*testing.T, string) {}},
		{"payload digest mismatch", func(t *testing.T, logPath string) {
			rewriteLog(t, logPath, func(rec *journal.Record) {
				if rec.Type == journal.TypeChunk && rec.Chunk == 1 {
					rec.Payload = []byte(`{"tampered":true}`)
				}
			})
		}},
		{"v1 log", func(t *testing.T, logPath string) {
			// The retired format: its open record names schema v1, and its
			// chunk records carry digests but no payloads.
			rewriteLog(t, logPath, func(rec *journal.Record) {
				if rec.Type == journal.TypeOpen {
					rec.Schema = "relaxfault-journal/v1"
				}
				rec.Payload = nil
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := cstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sc := func() *scenario.Scenario { return relScenario(t, 1, 0) }
			want, _, _ := runKeyed(t, sc(), st)
			es, err := st.Entries()
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(t, es[0].Path(cstore.CheckpointFile))
			if err := os.Remove(es[0].Path(cstore.MetaFile)); err != nil {
				t.Fatal(err)
			}

			out, rec, done := runKeyed(t, sc(), st)
			if rec.Source != harness.CampaignComputed || done == 0 {
				t.Fatalf("rerun over the stuck log: source %q, %d trials; want a recompute", rec.Source, done)
			}
			if out != want {
				t.Errorf("recompute differs from the first run:\n%s\nvs\n%s", out, want)
			}
			if _, rec, _ := runKeyed(t, sc(), st); rec.Source != harness.CampaignCacheHit {
				t.Errorf("the recomputed entry is not complete: next source %q, want cache-hit", rec.Source)
			}
		})
	}
}

// TestChunklessLogStartsFresh: a run stopped before its first chunk leaves
// an entry log with an open record, an interrupted seal and no chunk. That
// log resumes nothing, so its rerun starts like a fresh entry: a cold step
// is computed, and an extend step is seeded from the smaller entry the
// store has come to hold, with the result a straight run gives.
func TestChunklessLogStartsFresh(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	stop := func(t *testing.T, sc *scenario.Scenario, st *cstore.Store) {
		t.Helper()
		_, rec, err := RunStore(canceled, sc, st, Options{Mon: harness.NewMonitor(io.Discard, 0)})
		if !errors.Is(err, context.Canceled) || rec == nil {
			t.Fatalf("canceled run: record %+v, error %v; want a record and context.Canceled", rec, err)
		}
		j, err := journal.Load(filepath.Join(rec.StoreRoot, rec.Entry, cstore.CheckpointFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Chunks) != 0 || j.Seal == nil || j.Seal.Status != journal.StatusInterrupted {
			t.Fatalf("canceled run's log: %d chunk(s), seal %+v; want none and an interrupted seal", len(j.Chunks), j.Seal)
		}
	}
	rerun := func(t *testing.T, sc *scenario.Scenario, st *cstore.Store) *harness.CampaignRecord {
		t.Helper()
		plain, err := scenario.RunCtx(context.Background(), sc, scenario.Exec{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		res, rec, err := RunStore(context.Background(), sc, st, Options{Mon: harness.NewMonitor(io.Discard, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want) {
			t.Errorf("rerun differs from a straight run (%v):\n%s\nvs\n%s", err, got, want)
		}
		return rec
	}

	t.Run("cold", func(t *testing.T) {
		st, err := cstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stop(t, relScenario(t, 2, 0), st)
		rec := rerun(t, relScenario(t, 2, 0), st)
		if rec.Source != harness.CampaignComputed || rec.VerifiedChunks != 0 || rec.ReusedChunks != 0 {
			t.Errorf("rerun source %q, %d verified and %d reused chunk(s); want computed, 0 and 0",
				rec.Source, rec.VerifiedChunks, rec.ReusedChunks)
		}
	})

	t.Run("extend", func(t *testing.T) {
		st, err := cstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// 8192 nodes a replica: the cold step's 8 replicas fill 16 whole
		// chunks, and the extend step's 12 replicas begin with the same 16.
		sc := func(replicas int) *scenario.Scenario {
			sc := relScenario(t, replicas, 0)
			sc.Budget.Nodes = 8192
			return sc
		}
		stop(t, sc(12), st)
		_, cold, _ := runKeyed(t, sc(8), st)
		j, err := journal.Load(filepath.Join(cold.StoreRoot, cold.Entry, cstore.CheckpointFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Chunks) != 16 {
			t.Fatalf("cold entry holds %d chunk(s), want 16", len(j.Chunks))
		}
		rec := rerun(t, sc(12), st)
		if rec.Source != harness.CampaignResumed || rec.ReusedChunks != 16 {
			t.Errorf("rerun source %q with %d reused chunk(s); want resumed, seeded with the cold entry's 16",
				rec.Source, rec.ReusedChunks)
		}
	})
}
