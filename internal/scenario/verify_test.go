package scenario

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
)

// verifyScenario is a small, fast reliability campaign with enough faults
// (10x FIT) that chunk digests actually depend on the sampled histories.
func verifyScenario(t *testing.T) *Scenario {
	t.Helper()
	sc := &Scenario{
		Name: "verify-test",
		Kind: KindReliability,
		Budget: Budget{
			Nodes:    9000, // 3 chunks of 4096
			Replicas: 1,
		},
		Fault: &FaultSpec{FITScale: 10},
		Reliability: &ReliabilitySpec{
			Cells: []ReliabilityCell{{Label: "no-repair", Policy: "replace-after-due"}},
		},
	}
	if _, err := sc.Lower(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// appendRun runs sc against the campaign log at path — starting it, or
// resuming it — with sc embedded in the log's open or resume record (the
// self-contained form the CLI writes), and seals the log with status.
func appendRun(t *testing.T, path string, sc *Scenario, status string) {
	t.Helper()
	spec, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	store, err := harness.OpenStore(path, journal.Record{
		Seed: *sc.Seed,
		Campaigns: []journal.Campaign{
			{Name: sc.Name, Fingerprint: fp, Spec: spec},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), sc, Exec{Store: store}); err != nil {
		t.Fatal(err)
	}
	jw := store.Journal()
	if err := jw.Seal(status); err != nil {
		t.Fatal(err)
	}
	jw.Close()
}

// runJournaled executes sc against a new campaign log, seals it complete,
// and returns the loaded log.
func runJournaled(t *testing.T, sc *Scenario) *journal.Journal {
	t.Helper()
	jPath := filepath.Join(t.TempDir(), "cp.jsonl")
	appendRun(t, jPath, sc, journal.StatusComplete)
	j, err := journal.Load(jPath)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestVerifyJournalEndToEnd(t *testing.T) {
	sc := verifyScenario(t)
	j := runJournaled(t, sc)
	if j.ChunkRecords != 3 {
		t.Fatalf("campaign journaled %d chunks, want 3", j.ChunkRecords)
	}

	rep, err := VerifyJournal(context.Background(), j, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Verified != 3 || rep.Campaigns != 1 || rep.Sections != 1 {
		t.Fatalf("clean journal did not verify: %+v", rep)
	}
	if rep.Sealed != journal.StatusComplete {
		t.Fatalf("sealed = %q", rep.Sealed)
	}
}

// TestVerifyJournalResumedUnderSecondScenario: a rerun may resume a log
// under another scenario. Its resume record embeds that scenario, so verify
// replays the chunks of both, and a second resume under the first scenario
// adds no campaign.
func TestVerifyJournalResumedUnderSecondScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	first := verifyScenario(t)
	second := verifyScenario(t)
	second.Name = "verify-test-5x"
	second.Fault = &FaultSpec{FITScale: 5}
	appendRun(t, path, first, journal.StatusInterrupted)
	appendRun(t, path, second, journal.StatusInterrupted)
	appendRun(t, path, first, journal.StatusComplete)
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyJournal(context.Background(), j, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Unknown) != 0 || rep.Verified != 6 || rep.Campaigns != 2 || rep.Sections != 2 {
		t.Fatalf("log resumed under a second scenario: %s, want 2 campaigns and 6 verified chunks", rep)
	}
}

// TestVerifyJournalBooksTrials: verify books each replayed chunk's trials
// with the Monitor and expects their total before replaying, so progress
// reads in trials and has an ETA.
func TestVerifyJournalBooksTrials(t *testing.T) {
	j := runJournaled(t, verifyScenario(t))
	var spans int64
	for _, rec := range j.Chunks {
		spans += int64(rec.TrialHi - rec.TrialLo)
	}
	mon := harness.NewMonitor(io.Discard, 0)
	rep, err := VerifyJournal(context.Background(), j, Exec{Workers: 2, Mon: mon})
	if err != nil || !rep.OK() {
		t.Fatalf("clean journal did not verify: %v %+v", err, rep)
	}
	if done, total := mon.DoneTrials(), mon.Status().TrialsTotal; spans != 9000 || done != spans || total != spans {
		t.Errorf("monitor booked %d of %d trials, want the %d trials of the replayed records", done, total, spans)
	}
}

// TestVerifyJournalChunkIndexOutsideSection: a logged chunk index past the
// section's chunk count, or below 0, is reported mismatched and never
// replayed; the other chunks still verify.
func TestVerifyJournalChunkIndexOutsideSection(t *testing.T) {
	j := runJournaled(t, verifyScenario(t))
	byChunk := map[int]*journal.Record{}
	for i := range j.Chunks {
		byChunk[j.Chunks[i].Chunk] = &j.Chunks[i]
	}
	byChunk[0].Chunk = -1
	byChunk[2].Chunk = 3 // the section has chunks 0-2
	mon := harness.NewMonitor(io.Discard, 0)
	rep, err := VerifyJournal(context.Background(), j, Exec{Mon: mon})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Verified != 1 || len(rep.Mismatched) != 2 {
		t.Fatalf("out-of-range indexes not flagged: %+v", rep)
	}
	for i, want := range []int{-1, 3} {
		if m := rep.Mismatched[i]; m.Key.Chunk != want || !strings.Contains(m.Reason, "chunk index outside campaign's 3 chunks") {
			t.Errorf("mismatch %d = %v, want chunk %d outside the section", i, m, want)
		}
	}
	// Only chunk 1, [4096, 8192), was replayed.
	if done := mon.DoneTrials(); done != 4096 {
		t.Errorf("replayed %d trials, want chunk 1's 4096", done)
	}
}

func TestVerifyJournalDetectsCorruptDigest(t *testing.T) {
	sc := verifyScenario(t)
	j := runJournaled(t, sc)
	j.Chunks[1].Digest = "sha256:deadbeef"

	rep, err := VerifyJournal(context.Background(), j, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Mismatched) != 1 {
		t.Fatalf("corrupt digest not detected: %+v", rep)
	}
	m := rep.Mismatched[0]
	if m.Key.Chunk != j.Chunks[1].Chunk || !strings.Contains(m.Reason, "digest mismatch") {
		t.Fatalf("wrong mismatch: %+v", m)
	}
	if rep.Verified != 2 {
		t.Fatalf("untouched chunks must still verify: %+v", rep)
	}
}

func TestVerifyJournalFlagsUnknownSections(t *testing.T) {
	sc := verifyScenario(t)
	j := runJournaled(t, sc)
	j.Chunks[0].Section = "run-0000000000000000"

	rep, err := VerifyJournal(context.Background(), j, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Unknown) != 1 || rep.Verified != 2 {
		t.Fatalf("foreign section not flagged: %+v", rep)
	}
}

func TestVerifyJournalRejectsTamperedSpec(t *testing.T) {
	sc := verifyScenario(t)
	j := runJournaled(t, sc)
	// Change the embedded spec without updating the recorded fingerprint:
	// verification must refuse to replay rather than validate the wrong
	// campaign.
	tampered := strings.Replace(string(j.Campaigns[0].Spec), `"fit_scale":10`, `"fit_scale":5`, 1)
	if tampered == string(j.Campaigns[0].Spec) {
		t.Fatal("tamper edit did not apply")
	}
	j.Campaigns[0].Spec = []byte(tampered)

	_, err := VerifyJournal(context.Background(), j, Exec{})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("tampered spec accepted: %v", err)
	}
}

func TestVerifyJournalWorkerInvariance(t *testing.T) {
	sc := verifyScenario(t)
	j := runJournaled(t, sc)
	j.Chunks[2].Digest = "sha256:00"
	var reports []*VerifyReport
	for _, w := range []int{1, 4} {
		rep, err := VerifyJournal(context.Background(), j, Exec{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	a, b := reports[0], reports[1]
	if a.Verified != b.Verified || len(a.Mismatched) != len(b.Mismatched) ||
		a.String() != b.String() {
		t.Fatalf("worker count changed the report:\n%s\n%s", a, b)
	}
}
