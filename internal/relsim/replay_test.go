package relsim

import (
	"path/filepath"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/repair"
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
