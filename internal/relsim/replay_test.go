package relsim

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// journaledCampaign runs body against a store over a fresh campaign log,
// seals the log, and returns it loaded.
func journaledCampaign(t *testing.T, body func(store *harness.Store)) *journal.Journal {
	t.Helper()
	jPath := filepath.Join(t.TempDir(), "cp.jsonl")
	store, err := harness.OpenStore(jPath, journal.Record{})
	if err != nil {
		t.Fatal(err)
	}
	body(store)
	jw := store.Journal()
	if err := jw.Seal(journal.StatusComplete); err != nil {
		t.Fatal(err)
	}
	jw.Close()
	j, err := journal.Load(jPath)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRunReplayerMatchesJournal is the replay half of the verification
// contract: every chunk record a reliability run journals must be
// reproducible by NewRunReplayer byte-for-byte (same digest, same trial
// range) from the configuration alone.
func TestRunReplayerMatchesJournal(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 9000 // 3 chunks of 4096
	j := journaledCampaign(t, func(store *harness.Store) {
		cfg.Store = store
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if j.ChunkRecords != 3 {
		t.Fatalf("want 3 journaled chunks, got %d", j.ChunkRecords)
	}

	rep, err := NewRunReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Section.Count() != 3 || rep.Section.Name != "run-"+cfg.Fingerprint() {
		t.Fatalf("replayer shape wrong: %d chunks, section %s", rep.Section.Count(), rep.Section.Name)
	}
	verifyJournal(t, j, rep)

	// A different seed must NOT reproduce the digests (the test would be
	// vacuous if digests did not depend on the sampled histories).
	other := cfg
	other.Seed++
	orep, err := NewRunReplayer(other)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := orep.Kernel()(orep.Section.Span(j.Chunks[0].Chunk))
	if err != nil {
		t.Fatal(err)
	}
	if journal.Digest(raw) == j.Chunks[0].Digest {
		t.Fatal("different seed replayed to an identical digest")
	}
}

// verifyJournal replays every journaled chunk through one kernel of rep and
// requires the journaled section, trial range and digest.
func verifyJournal(t *testing.T, j *journal.Journal, rep Replayer) {
	t.Helper()
	if j.ChunkRecords == 0 {
		t.Fatal("campaign journaled no chunks")
	}
	kernel := rep.Kernel()
	for _, rec := range j.Chunks {
		if rec.Section != rep.Section.Name || rec.SectionFP != rep.Section.Fingerprint {
			t.Fatalf("journal record names section %s/%s, replayer %s/%s",
				rec.Section, rec.SectionFP, rep.Section.Name, rep.Section.Fingerprint)
		}
		lo, hi := rep.Section.Span(rec.Chunk)
		raw, err := kernel(lo, hi)
		if err != nil {
			t.Fatalf("replaying chunk %d: %v", rec.Chunk, err)
		}
		if lo != rec.TrialLo || hi != rec.TrialHi {
			t.Fatalf("chunk %d trial range: replay [%d,%d), journal [%d,%d)",
				rec.Chunk, lo, hi, rec.TrialLo, rec.TrialHi)
		}
		if got := journal.Digest(raw); got != rec.Digest {
			t.Fatalf("chunk %d digest: replay %s, journal %s", rec.Chunk, got, rec.Digest)
		}
	}
}

// TestWeightedCoverageDeterminism pins importance-weighted coverage chunks:
// the weighted tallies accumulate trial by trial in index order, so results
// and views are byte-identical across worker counts and every journaled
// chunk verifies against replay.
func TestWeightedCoverageDeterminism(t *testing.T) {
	base := covCfg(t)
	base.Stats = &StatsConfig{Estimator: EstimatorImportance, Boost: 2}
	model, err := fault.NewModel(base.Model)
	if err != nil {
		t.Fatal(err)
	}
	est, err := base.Stats.newEstimator(model)
	if err != nil {
		t.Fatal(err)
	}
	var wantRes, wantSnap []byte
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		var res *CoverageResult
		var store *harness.Store
		j := journaledCampaign(t, func(s *harness.Store) {
			cfg.Store, store = s, s
			if res, err = CoverageStudy(cfg); err != nil {
				t.Fatal(err)
			}
		})
		rep, err := NewCoverageReplayer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		verifyJournal(t, j, rep)
		gotRes, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		gotSnap, err := store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if wantRes == nil {
			wantRes, wantSnap = gotRes, gotSnap
		} else if !bytes.Equal(gotRes, wantRes) || !bytes.Equal(gotSnap, wantSnap) {
			t.Errorf("workers=%d: result or view differs from the 1-worker run", workers)
		}

		// Each stored chunk's weighted node tally is the trial-order sum of
		// its trials' importance weights.
		cp := store.Section(rep.Section)
		fk := stats.NewRNG(cfg.Seed).Forker()
		var rng stats.RNG
		var sc fault.SampleScratch
		for _, ci := range cp.Indexes() {
			raw, _ := cp.Get(ci)
			var ch covChunk
			if err := json.Unmarshal(raw, &ch); err != nil {
				t.Fatal(err)
			}
			lo, hi := rep.Section.Span(ci)
			want := 0.0
			for i := lo; i < hi; i++ {
				fk.Substream(uint64(i), &rng)
				_, w := est.sampleNode(&rng, &sc, i)
				want += w
			}
			if ch.WNodes != want {
				t.Fatalf("chunk %d: w_nodes %v, want the trial-order sum %v", ci, ch.WNodes, want)
			}
		}
	}
}

func TestCoverageReplayerMatchesJournal(t *testing.T) {
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.Planners = []repair.Planner{must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{}))}
	cfg.WayLimits = []int{4}
	cfg.FaultyNodes = 400
	cfg.MaxNodes = 50000
	j := journaledCampaign(t, func(store *harness.Store) {
		cfg.Store = store
		if _, err := CoverageStudy(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if j.ChunkRecords == 0 {
		t.Fatal("coverage study journaled no chunks")
	}

	rep, err := NewCoverageReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Section.Name != "coverage-"+cfg.Fingerprint() {
		t.Fatalf("replayer section %s", rep.Section.Name)
	}
	verifyJournal(t, j, rep)
}
