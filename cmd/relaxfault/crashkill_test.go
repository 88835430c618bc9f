// Integration tests for the crash-safety contract of the campaign log each
// -store entry keeps: a campaign SIGKILLed mid-run resumes to
// byte-identical output when the same command is rerun, also in the middle
// of a run of several points, SIGTERM and a -timeout deadline seal the log
// gracefully, `relaxfault verify` detects digest and payload corruption,
// and logs of the retired v1 format are refused. These build and drive the real binary
// as a subprocess, so they are skipped under -short (CI runs them in a
// dedicated robustness job).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
)

// killScenario sizes a reliability campaign long enough (~64 chunks, a few
// seconds at -parallel 2) that a signal reliably lands mid-run, with enough
// faults (10x FIT) that chunk digests depend on the sampled histories.
const killScenario = `{
  "schema": "relaxfault-scenario/v1",
  "name": "crashkill",
  "kind": "reliability",
  "budget": {"nodes": 16384, "replicas": 16},
  "fault": {"fit_scale": 10},
  "reliability": {"cells": [{"label": "no-repair", "way_limit": 0}]}
}
`

// smokeScenario is the 3-chunk variant for the verify-subcommand tests.
const smokeScenario = `{
  "schema": "relaxfault-scenario/v1",
  "name": "smoke",
  "kind": "reliability",
  "budget": {"nodes": 9000, "replicas": 1},
  "fault": {"fit_scale": 10},
  "reliability": {"cells": [{"label": "no-repair", "way_limit": 0}]}
}
`

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds ./cmd/relaxfault once per test run and returns its path.
func binary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess integration test; skipped in -short")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "relaxfault-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "relaxfault")
		cmd := exec.Command("go", "build", "-o", buildPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

// runBin runs the binary to completion and returns (stdout, stderr, exit code).
func runBin(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// campaignArgs are the flags every logged subprocess campaign shares: the
// campaign store is the directory store in dir.
func campaignArgs(scPath, dir string) []string {
	return []string{
		"-scenario", scPath,
		"-store", filepath.Join(dir, "store"),
		"-parallel", "2",
		"-progress", "0",
	}
}

// entryLogs lists the campaign logs of the store in dir, one per entry.
func entryLogs(dir string) []string {
	logs, _ := filepath.Glob(filepath.Join(dir, "store", "*", "*", "*", cstore.CheckpointFile))
	return logs
}

// entryLog returns the log of the store's only entry.
func entryLog(t *testing.T, dir string) string {
	t.Helper()
	logs := entryLogs(dir)
	if len(logs) != 1 {
		t.Fatalf("store in %s holds %d entry logs, want 1: %v", dir, len(logs), logs)
	}
	return logs[0]
}

// storeProgress reports how many entry logs the store in dir holds, and
// how many chunk records the log of the entry still in progress (no entry
// metadata yet) has.
func storeProgress(dir string) (logs, pending int) {
	for _, log := range entryLogs(dir) {
		logs++
		if _, err := os.Stat(filepath.Join(filepath.Dir(log), cstore.MetaFile)); err != nil {
			pending = chunkRecords(log)
		}
	}
	return logs, pending
}

func writeScenario(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chunkRecords counts the chunk records currently readable in the log.
func chunkRecords(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), `"type":"chunk"`)
}

// lastRecord decodes the log's final line.
func lastRecord(t *testing.T, path string) journal.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var env struct {
		Rec journal.Record `json:"rec"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &env); err != nil {
		t.Fatalf("decode journal tail %q: %v", lines[len(lines)-1], err)
	}
	return env.Rec
}

// startAndSignal starts the binary with args, waits until the store in dir
// holds the given number of entry logs and the entry in progress has
// minChunks chunk records durably logged, then delivers sig. It fails the
// test if the run finishes before the signal lands.
func startAndSignal(t *testing.T, dir string, args []string, logs, minChunks int, sig syscall.Signal) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.After(60 * time.Second)
	for n, pending := storeProgress(dir); n < logs || pending < minChunks; n, pending = storeProgress(dir) {
		select {
		case err := <-done:
			t.Fatalf("campaign finished before the signal could land (sizing bug): err=%v stderr=%s", err, errb.String())
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("after 60s the store has %d entry log(s) and %d chunk(s) pending, want %d and %d", n, pending, logs, minChunks)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	err := <-done
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// view rebuilds from a log.
func view(t *testing.T, path string) []byte {
	t.Helper()
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.LoadStore(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashKillResumeByteIdentity is the headline robustness contract:
// SIGKILL a logged campaign mid-run (no chance to seal or clean up),
// corrupt the entry log's tail the way a torn write would, and the resumed
// run must (a) check every logged payload against its digest, (b) produce
// stdout byte-identical to an uninterrupted run, and (c) leave a log that
// rebuilds the uninterrupted run's view and verifies end to end.
func TestCrashKillResumeByteIdentity(t *testing.T) {
	bin := binary(t)
	_ = bin

	// Uninterrupted reference run.
	refDir := t.TempDir()
	scRef := writeScenario(t, refDir, killScenario)
	refOut, refErr, code := runBin(t, campaignArgs(scRef, refDir)...)
	if code != 0 {
		t.Fatalf("reference run exit %d\n%s", code, refErr)
	}
	refLog := entryLog(t, refDir)
	if rec := lastRecord(t, refLog); rec.Type != journal.TypeSeal || rec.Status != journal.StatusComplete {
		t.Fatalf("reference log tail = %+v, want complete seal", rec)
	}

	// Killed run: SIGKILL once at least 3 chunks are logged.
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	kOut, _, code := startAndSignal(t, dir, campaignArgs(scPath, dir), 1, 3, syscall.SIGKILL)
	if code != -1 {
		t.Fatalf("SIGKILLed run exited with code %d, want signal death", code)
	}
	if kOut != "" {
		t.Fatalf("killed run produced stdout %q before finishing", kOut)
	}

	// Simulate the torn write a crash can leave behind: a partial line with
	// no newline, no sum. Resume must truncate it and carry on.
	jPath := entryLog(t, dir)
	f, err := os.OpenFile(jPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":{"type":"chunk","seq":9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Rerun the same command: it resumes the entry's log, verifies the
	// logged payloads, computes the rest, and prints byte-identical output.
	rOut, rErr, code := runBin(t, campaignArgs(scPath, dir)...)
	if code != 0 {
		t.Fatalf("resume exit %d\n%s", code, rErr)
	}
	if !strings.Contains(rErr, "logged chunk(s) verified") {
		t.Fatalf("resume did not verify the logged payloads:\n%s", rErr)
	}
	if rOut != refOut {
		t.Fatalf("resumed stdout differs from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s", rOut, refOut)
	}

	// The recovered log must rebuild the uninterrupted run's view.
	if ref, got := view(t, refLog), view(t, jPath); !bytes.Equal(ref, got) {
		t.Fatalf("view rebuilt from the resumed log differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(ref))
	}

	// The resumed log: resume record present, sealed complete, and the
	// whole thing replays clean through the verify subcommand.
	jData, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jData), `"type":"resume"`) {
		t.Fatal("resumed log has no resume record")
	}
	if rec := lastRecord(t, jPath); rec.Type != journal.TypeSeal || rec.Status != journal.StatusComplete {
		t.Fatalf("resumed log tail = %+v, want complete seal", rec)
	}
	vOut, vErr, code := runBin(t, "verify", "-journal", jPath, "-progress", "0")
	if code != 0 {
		t.Fatalf("verify exit %d\nstdout: %s\nstderr: %s", code, vOut, vErr)
	}
	if !strings.Contains(vOut, "0 mismatched, 0 unknown (complete)") {
		t.Fatalf("verify report: %s", vOut)
	}
}

// TestSIGTERMSealsInterrupted checks the graceful-termination path: SIGTERM
// stops at the next chunk boundary, seals the entry log "interrupted", and
// exits 143 — and rerunning the same command resumes the sealed-interrupted
// log and finishes the campaign.
func TestSIGTERMSealsInterrupted(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	_, stderr, code := startAndSignal(t, dir, campaignArgs(scPath, dir), 1, 1, syscall.SIGTERM)
	if code != 143 {
		t.Fatalf("SIGTERM exit %d, want 143\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "terminated") || !strings.Contains(stderr, "rerun the same command") {
		t.Fatalf("stderr does not report termination and how to resume:\n%s", stderr)
	}
	jPath := entryLog(t, dir)
	rec := lastRecord(t, jPath)
	if rec.Type != journal.TypeSeal || rec.Status != journal.StatusInterrupted {
		t.Fatalf("log tail after SIGTERM = %+v, want interrupted seal", rec)
	}

	_, rErr, code := runBin(t, campaignArgs(scPath, dir)...)
	if code != 0 {
		t.Fatalf("resume after SIGTERM exit %d\n%s", code, rErr)
	}
	if rec := lastRecord(t, jPath); rec.Type != journal.TypeSeal || rec.Status != journal.StatusComplete {
		t.Fatalf("log tail after resume = %+v, want complete seal", rec)
	}
}

// TestTimeoutSealsInterrupted checks the -timeout path: a deadline that
// passes before the first chunk fails the point (exit 1, the deadline
// named), seals its entry log "interrupted", says so with how to resume it,
// and writes no entry metadata; rerunning without -timeout continues that
// entry, which holds no chunk and so is computed, and prints exactly what
// a run without -store prints.
func TestTimeoutSealsInterrupted(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, smokeScenario)
	refOut, refErr, code := runBin(t, "-scenario", scPath, "-parallel", "2", "-progress", "0")
	if code != 0 {
		t.Fatalf("unpersisted run exit %d\n%s", code, refErr)
	}

	_, stderr, code := runBin(t, append(campaignArgs(scPath, dir), "-timeout", "1ns")...)
	if code != 1 || !strings.Contains(stderr, "context deadline exceeded") {
		t.Fatalf("-timeout 1ns run: exit %d, want 1 naming the deadline\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "sealed interrupted (rerun the same command to resume)") {
		t.Fatalf("-timeout 1ns run does not say its log was sealed interrupted and how to resume it\n%s", stderr)
	}
	jPath := entryLog(t, dir)
	if rec := lastRecord(t, jPath); rec.Type != journal.TypeSeal || rec.Status != journal.StatusInterrupted {
		t.Fatalf("log tail after the deadline = %+v, want interrupted seal", rec)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(jPath), cstore.MetaFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("timed-out entry has metadata (stat err %v), want none", err)
	}

	man := filepath.Join(dir, "m.json")
	out, rErr, code := runBin(t, append(campaignArgs(scPath, dir), "-metrics", man)...)
	if code != 0 {
		t.Fatalf("rerun without -timeout exit %d\n%s", code, rErr)
	}
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	var m harness.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// The timed-out run logged no chunk, so the rerun resumes nothing and
	// computes the entry like a fresh one.
	if len(m.Campaigns) != 1 || m.Campaigns[0].Source != harness.CampaignComputed {
		t.Fatalf("rerun campaigns %+v, want one computed", m.Campaigns)
	}
	if out != refOut {
		t.Fatalf("rerun stdout differs from the unpersisted run:\n--- rerun ---\n%s--- unpersisted ---\n%s", out, refOut)
	}
}

// TestInterruptedRunRecordsBegunScenarios: a run's manifest names the
// scenarios that ran. A two-point sweep terminated during its first point
// records that point's scenario alone, the one its campaign record names.
func TestInterruptedRunRecordsBegunScenarios(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	man := filepath.Join(dir, "m.json")
	args := append([]string{"sweep", "-set", "seed=7,8", "-metrics", man}, campaignArgs(scPath, dir)...)
	_, stderr, code := startAndSignal(t, dir, args, 1, 1, syscall.SIGTERM)
	if code != 143 {
		t.Fatalf("SIGTERM exit %d, want 143\n%s", code, stderr)
	}
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	var m harness.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Scenarios) != 1 || len(m.Campaigns) != 1 || m.Scenarios[0].Fingerprint != m.Campaigns[0].Fingerprint {
		t.Fatalf("manifest records %d scenario(s) and %d campaign(s), want the first point's one each",
			len(m.Scenarios), len(m.Campaigns))
	}
}

// reframe rewrites the log at path through the journal writer into a new
// file, applying edit to every chunk record, and seals it with status. A
// raw byte edit would read as a torn tail; a validly framed lie needs the
// writer itself.
func reframe(t *testing.T, path, dst, status string, edit func(i int, rec *journal.Record)) {
	t.Helper()
	j, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(*j.Open); err != nil {
		t.Fatal(err)
	}
	for i, rec := range j.Chunks {
		edit(i, &rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(status); err != nil {
		t.Fatal(err)
	}
}

// TestVerifySubcommand exercises the verify CLI against one small sealed
// campaign's entry log: clean log → exit 0; corrupted chunk digest or
// payload → exit 3 with the mismatch named (and an entry whose log holds
// the corrupted payload recomputed, since the store owns its logs); torn
// tail → warned, valid prefix verified.
func TestVerifySubcommand(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, smokeScenario)
	refOut, stderr, code := runBin(t, campaignArgs(scPath, dir)...)
	if code != 0 {
		t.Fatalf("campaign exit %d\n%s", code, stderr)
	}
	jPath := entryLog(t, dir)

	t.Run("clean", func(t *testing.T) {
		out, _, code := runBin(t, "verify", "-journal", jPath, "-progress", "0")
		if code != 0 || !strings.Contains(out, "3 verified, 0 mismatched") {
			t.Fatalf("exit %d, report: %s", code, out)
		}
	})

	t.Run("corrupt-digest", func(t *testing.T) {
		lie := filepath.Join(dir, "corrupt.jsonl")
		reframe(t, jPath, lie, journal.StatusComplete, func(i int, rec *journal.Record) {
			if i == 1 {
				rec.Digest = "sha256:deadbeef"
			}
		})
		out, stderr, code := runBin(t, "verify", "-journal", lie, "-progress", "0")
		if code != 3 {
			t.Fatalf("verify of corrupted log exit %d, want 3\n%s", code, out)
		}
		if !strings.Contains(out, "1 mismatched") || !strings.Contains(stderr, "digest mismatch") {
			t.Fatalf("mismatch not reported:\nstdout: %s\nstderr: %s", out, stderr)
		}
	})

	t.Run("corrupt-payload", func(t *testing.T) {
		// Chunk 1's payload altered with its digest kept; sealed
		// interrupted, so only the payload check can refuse the resume.
		lie := filepath.Join(dir, "payload.jsonl")
		reframe(t, jPath, lie, journal.StatusInterrupted, func(i int, rec *journal.Record) {
			if i == 1 {
				rec.Payload = []byte(`{"tampered":true}`)
			}
		})
		out, stderr, code := runBin(t, "verify", "-journal", lie, "-progress", "0")
		if code != 3 || !strings.Contains(out, "1 mismatched") || !strings.Contains(stderr, "payload digest mismatch") {
			t.Fatalf("verify of tampered payload: exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
		}

		// The tampered log as the log of an entry still in progress: the
		// rerun finds the entry unusable and recomputes it.
		runDir := t.TempDir()
		args := campaignArgs(writeScenario(t, runDir, smokeScenario), runDir)
		if _, stderr, code := runBin(t, args...); code != 0 {
			t.Fatalf("campaign exit %d\n%s", code, stderr)
		}
		runLog := entryLog(t, runDir)
		data, err := os.ReadFile(lie)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runLog, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(filepath.Dir(runLog), cstore.MetaFile)); err != nil {
			t.Fatal(err)
		}
		out, stderr, code = runBin(t, args...)
		if code != 0 || !strings.Contains(stderr, "fail their digest check") || !strings.Contains(stderr, "recomputing") {
			t.Fatalf("rerun over the tampered entry log: exit %d, want 0 recomputing it\n%s", code, stderr)
		}
		if out != refOut {
			t.Fatalf("recomputed stdout differs from the first run:\n--- recomputed ---\n%s--- first ---\n%s", out, refOut)
		}
		if out, stderr, code := runBin(t, "verify", "-journal", runLog, "-progress", "0"); code != 0 || !strings.Contains(out, "3 verified, 0 mismatched") {
			t.Fatalf("verify of the recomputed log: exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
		}
	})

	t.Run("torn-tail", func(t *testing.T) {
		data, err := os.ReadFile(jPath)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "torn.jsonl")
		// Chop into the seal line: the valid prefix (open + chunks) remains.
		if err := os.WriteFile(torn, data[:len(data)-10], 0o644); err != nil {
			t.Fatal(err)
		}
		out, stderr, code := runBin(t, "verify", "-journal", torn, "-progress", "0")
		if code != 0 {
			t.Fatalf("verify of torn log exit %d\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "torn tail") || !strings.Contains(out, "(unsealed)") {
			t.Fatalf("torn tail not reported:\nstdout: %s\nstderr: %s", out, stderr)
		}
	})
}

// TestV1LogRefused pins the format boundary with a log of the retired v1
// format, written by an earlier release for smokeScenario (digests, no
// payloads): verify refuses it naming its schema. (A store entry whose log
// is of the v1 format is recomputed; campaign.TestStuckEntryLogRecomputes
// pins that.)
func TestV1LogRefused(t *testing.T) {
	const fixture, v1 = "testdata/smoke-v1.journal", "relaxfault-journal/v1"
	_, stderr, code := runBin(t, "verify", "-journal", fixture, "-progress", "0")
	if code != 1 || !strings.Contains(stderr, v1) {
		t.Fatalf("verify of the v1 log: exit %d, want 1 naming %s\n%s", code, v1, stderr)
	}
}

// TestCrashKillSweepResumes is the case a run of several points puts to the
// store: a two-point sweep of killScenario is SIGKILLed during its second
// point. The rerun serves the first point as a cache hit, resumes the
// second from its entry log, and prints stdout byte-identical to an
// unpersisted run of the same sweep.
func TestCrashKillSweepResumes(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	sweep := []string{"sweep", "-set", "seed=7,8"}

	refOut, refErr, code := runBin(t, append(sweep, "-scenario", scPath, "-parallel", "2", "-progress", "0")...)
	if code != 0 {
		t.Fatalf("unpersisted sweep exit %d\n%s", code, refErr)
	}

	args := append(sweep, campaignArgs(scPath, dir)...)
	kOut, _, code := startAndSignal(t, dir, args, 2, 3, syscall.SIGKILL)
	if code != -1 {
		t.Fatalf("SIGKILLed sweep exited with code %d, want signal death", code)
	}
	if strings.Count(kOut, "Scenario ") != 1 {
		t.Fatalf("killed sweep printed %d point(s), want the first only:\n%s", strings.Count(kOut, "Scenario "), kOut)
	}

	rOut, rErr, code := runBin(t, args...)
	if code != 0 {
		t.Fatalf("rerun exit %d\n%s", code, rErr)
	}
	if !strings.Contains(rErr, "cache hit") || !strings.Contains(rErr, "logged chunk(s) verified") {
		t.Fatalf("rerun did not serve the first point from the store and resume the second:\n%s", rErr)
	}
	if rOut != refOut {
		t.Fatalf("rerun stdout differs from the unpersisted sweep:\n--- rerun ---\n%s--- unpersisted ---\n%s", rOut, refOut)
	}
}
