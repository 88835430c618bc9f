package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"relaxfault/internal/harness"
)

// putEntry writes a minimal completed entry plus a sentinel artifact file,
// returning the entry directory.
func putEntry(t *testing.T, st *Store, key string, seed uint64, trials int, stopped bool) string {
	t.Helper()
	dir := st.EntryDir(key, seed, trials)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteMeta(dir, Meta{
		Key: key, Seed: seed, Trials: trials, Name: "t",
		ScenarioFingerprint: fmt.Sprintf("fp-%d", trials),
		Stopped:             stopped, Status: StatusComplete,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMetaSectionsJSON pins the entry metadata's section records: a
// harness.Section encodes as {name, fingerprint, chunk_size, total_trials},
// and an entry.json written in that format reads back with its sections and
// re-encodes to the same bytes, so entries stay cache hits and seeds across
// versions.
func TestMetaSectionsJSON(t *testing.T) {
	secs := []harness.Section{{Name: "coverage-0ccadec1e283a709", Fingerprint: "0ccadec1e283a709",
		Chunking: harness.Chunking{Size: 2048, Trials: 5000000}}}
	raw, err := json.Marshal(Meta{Sections: secs}.Sections)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"name":"coverage-0ccadec1e283a709","fingerprint":"0ccadec1e283a709","chunk_size":2048,"total_trials":5000000}]`
	if string(raw) != want {
		t.Errorf("sections encode as\n%s\nwant\n%s", raw, want)
	}

	const entry = `{
  "schema": "relaxfault-campaign-entry/v2",
  "key": "8408abb69450bbee",
  "seed": 11,
  "trials": 2000,
  "name": "hopper-ppr-budget",
  "scenario_fingerprint": "ed5678dd1efbc78b",
  "sections": [
    {
      "name": "coverage-0ccadec1e283a709",
      "fingerprint": "0ccadec1e283a709",
      "chunk_size": 2048,
      "total_trials": 5000000
    }
  ],
  "status": "complete",
  "created": "2026-10-17T09:37:42Z",
  "wall_seconds": 0.094096803
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := readEntry(dir)
	if err != nil || e == nil {
		t.Fatalf("entry not read back: %v", err)
	}
	if !reflect.DeepEqual(e.Meta.Sections, secs) {
		t.Errorf("sections read back as %+v, want %+v", e.Meta.Sections, secs)
	}
	out := t.TempDir()
	if err := WriteMeta(out, e.Meta); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(out, MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != entry {
		t.Errorf("entry re-encodes as\n%s\nwant\n%s", again, entry)
	}
}

// TestLookupBudgetAxes pins the one source policy: the exact entry is the
// hit; otherwise the cheapest covering entry (the smallest larger budget,
// or a sequentially-stopped one) beats any smaller entry, and failing one,
// the largest smaller entry seeds.
func TestLookupBudgetAxes(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, st, "k", 7, 100, false)
	putEntry(t, st, "k", 7, 300, false)
	putEntry(t, st, "k", 7, 400, false)
	trialsOf := func(e *Entry) int {
		if e == nil {
			return 0
		}
		return e.Meta.Trials
	}
	check := func(key string, seed uint64, trials, wantExact, wantSrc int) {
		t.Helper()
		exact, src, err := st.Lookup(key, seed, trials)
		if err != nil {
			t.Fatal(err)
		}
		if trialsOf(exact) != wantExact || trialsOf(src) != wantSrc {
			t.Errorf("Lookup(%s, %d, %d): exact t%d, src t%d; want t%d, t%d (0 = none)",
				key, seed, trials, trialsOf(exact), trialsOf(src), wantExact, wantSrc)
		}
	}

	// Exact budget: the hit, and the smallest larger entry as the source.
	check("k", 7, 100, 100, 300)
	// Between budgets: the smallest covering entry beats the smaller one.
	check("k", 7, 200, 0, 300)
	check("k", 7, 350, 0, 400)
	// Above every budget: nothing covers, so the largest smaller entry.
	check("k", 7, 500, 0, 400)
	// Below every budget: the smallest entry covers.
	check("k", 7, 50, 0, 100)

	// A sequentially-stopped entry covers every larger budget, so it beats
	// a larger smaller entry that does not.
	putEntry(t, st, "s", 7, 100, true)
	putEntry(t, st, "s", 7, 120, false)
	check("s", 7, 1_000_000, 0, 100)
	check("s", 7, 120, 120, 100)

	// Other seeds and keys are invisible.
	check("k", 8, 100, 0, 0)
	check("x", 7, 100, 0, 0)
}

// TestLookupIgnoresIncomplete: a directory without its metadata file — a
// writer mid-flight or a crashed run — must be invisible to readers.
func TestLookupIgnoresIncomplete(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := st.EntryDir("k", 7, 100)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	exact, src, err := st.Lookup("k", 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if exact != nil || src != nil {
		t.Errorf("incomplete entry leaked into lookup: %+v/%+v", exact, src)
	}
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 0 {
		t.Errorf("Entries() = %d, want 0", len(es))
	}
}

// TestClaimRace: many claimants race for one entry directory; exactly one
// wins, every loser gets a clean error naming the winner's pid, and the
// winner's artifacts survive untouched.
func TestClaimRace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := st.EntryDir("k", 7, 100)

	const racers = 8
	var wg sync.WaitGroup
	claims := make([]*Claim, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			claims[i], errs[i] = st.Claim(dir)
		}(i)
	}
	wg.Wait()
	var winner *Claim
	for i := 0; i < racers; i++ {
		switch {
		case claims[i] != nil && errs[i] == nil:
			if winner != nil {
				t.Fatalf("two racers both hold the claim")
			}
			winner = claims[i]
		case errs[i] != nil:
			if !strings.Contains(errs[i].Error(), "claimed by running pid") {
				t.Errorf("loser error = %v, want a live-claim message", errs[i])
			}
		default:
			t.Errorf("racer %d got neither claim nor error", i)
		}
	}
	if winner == nil {
		t.Fatal("no racer won the claim")
	}

	// The winner writes its artifacts; a late loser must not disturb them.
	artifact := filepath.Join(dir, CheckpointFile)
	if err := os.WriteFile(artifact, []byte("winner"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Claim(dir); err == nil {
		t.Fatal("second claim while held: got nil error")
	}
	data, err := os.ReadFile(artifact)
	if err != nil || string(data) != "winner" {
		t.Fatalf("winner artifact corrupted: %q, %v", data, err)
	}

	// After release the claim is free again.
	if err := winner.Release(); err != nil {
		t.Fatal(err)
	}
	c, err := st.Claim(dir)
	if err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	c.Release()
}

// TestClaimStaleTakeover: a claim whose owner process is gone is removed
// and taken over; unreadable garbage counts as stale too.
func TestClaimStaleTakeover(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := st.EntryDir("k", 7, 100)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// A real pid that is certainly dead: a child we already reaped.
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run true: %v", err)
	}
	deadPid := cmd.Process.Pid
	claimPath := filepath.Join(dir, ".claim")
	if err := os.WriteFile(claimPath, []byte(fmt.Sprintf("%d\n", deadPid)), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := st.Claim(dir)
	if err != nil {
		t.Fatalf("takeover of dead pid %d: %v", deadPid, err)
	}
	c.Release()

	if err := os.WriteFile(claimPath, []byte("not a pid"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = st.Claim(dir)
	if err != nil {
		t.Fatalf("takeover of garbage claim: %v", err)
	}
	c.Release()
}

// TestClaimTakeoverRace re-enacts two runs restarting one killed campaign
// at once: both find its claim stale, A takes it over, and only then does B
// run its takeover. B must find A's claim live and leave it in place. A
// takeover file that a dead process left behind fails the next claim with
// an error naming it.
func TestClaimTakeoverRace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := st.EntryDir("k", 7, 100)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run true: %v", err)
	}
	claimPath := filepath.Join(dir, ".claim")
	stale := []byte(fmt.Sprintf("%d\n", cmd.Process.Pid))
	if err := os.WriteFile(claimPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := liveClaim(dir, claimPath); err != nil { // B finds it stale
		t.Fatal(err)
	}
	a, err := st.Claim(dir) // A takes it over
	if err != nil {
		t.Fatal(err)
	}
	if err := takeOver(dir, claimPath); err == nil || !strings.Contains(err.Error(), "claimed by running pid") {
		t.Fatalf("B's takeover after A's: %v, want a live-claim error", err)
	}
	data, err := os.ReadFile(claimPath)
	if want := fmt.Sprintf("%d\n", os.Getpid()); err != nil || string(data) != want {
		t.Fatalf("A's claim after B's takeover: %q, %v; want %q", data, err, want)
	}
	if _, err := os.Stat(claimPath + ".takeover"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("takeover file left behind: %v", err)
	}
	a.Release()

	// Racing takeovers of one stale claim: exactly one wins each round.
	for round := 0; round < 20; round++ {
		if err := os.WriteFile(claimPath, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		const racers = 8
		var wg sync.WaitGroup
		claims := make([]*Claim, racers)
		for i := range claims {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				claims[i], _ = st.Claim(dir)
			}(i)
		}
		wg.Wait()
		var winners []*Claim
		for _, c := range claims {
			if c != nil {
				winners = append(winners, c)
			}
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d racers hold the stale claim's takeover, want 1", round, len(winners))
		}
		winners[0].Release()
	}

	if err := os.WriteFile(claimPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(claimPath+".takeover", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Claim(dir); err == nil || !strings.Contains(err.Error(), claimPath+".takeover") {
		t.Fatalf("claim beside a dead takeover: %v, want an error naming the takeover file", err)
	}
}

// TestEvict: prefix eviction counts entries, spares other keys, and
// refuses a key with a live claim.
func TestEvict(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, st, "aaa1", 7, 100, false)
	putEntry(t, st, "aaa1", 7, 200, false)
	putEntry(t, st, "bbb2", 7, 100, false)

	if _, err := st.Evict(""); err == nil {
		t.Error("empty prefix: want error")
	}
	n, err := st.Evict("aaa")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("evicted %d, want 2", n)
	}
	es, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].Meta.Key != "bbb2" {
		t.Errorf("surviving entries = %+v, want only bbb2", es)
	}

	c, err := st.Claim(st.EntryDir("bbb2", 7, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if _, err := st.Evict("bbb"); err == nil {
		t.Error("evicting a live-claimed key: want error")
	}
	es, err = st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Errorf("claimed entry was evicted")
	}
}
