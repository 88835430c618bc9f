// Integration tests for the crash-safety contract of the campaign log: a
// campaign SIGKILLed mid-run resumes to byte-identical output when the same
// command is rerun, SIGTERM seals the log gracefully, `relaxfault verify`
// detects digest and payload corruption, and logs of the retired v1 format
// are refused. These build and drive the real binary as a subprocess, so
// they are skipped under -short (CI runs them in a dedicated robustness
// job).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

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
// campaign log is cp.jsonl in dir.
func campaignArgs(scPath, dir string) []string {
	return []string{
		"-scenario", scPath,
		"-checkpoint", filepath.Join(dir, "cp.jsonl"),
		"-parallel", "2",
		"-progress", "0",
	}
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

// startAndSignal starts a logged campaign, waits until minChunks chunk
// records are durably logged, then delivers sig. It fails the test if the
// campaign finishes before the signal lands.
func startAndSignal(t *testing.T, dir, scPath string, minChunks int, sig syscall.Signal) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(binary(t), campaignArgs(scPath, dir)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	logPath := filepath.Join(dir, "cp.jsonl")
	deadline := time.After(60 * time.Second)
	for chunkRecords(logPath) < minChunks {
		select {
		case err := <-done:
			t.Fatalf("campaign finished before the signal could land (sizing bug): err=%v stderr=%s", err, errb.String())
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("fewer than %d logged chunks after 60s; the log has %d", minChunks, chunkRecords(logPath))
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
// corrupt the log tail the way a torn write would, and the resumed run must
// (a) check every logged payload against its digest, (b) produce stdout
// byte-identical to an uninterrupted run, and (c) leave a log that rebuilds
// the uninterrupted run's view and verifies end to end.
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
	refLog := filepath.Join(refDir, "cp.jsonl")
	if rec := lastRecord(t, refLog); rec.Type != journal.TypeSeal || rec.Status != journal.StatusComplete {
		t.Fatalf("reference log tail = %+v, want complete seal", rec)
	}

	// Killed run: SIGKILL once at least 3 chunks are logged.
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	kOut, _, code := startAndSignal(t, dir, scPath, 3, syscall.SIGKILL)
	if code != -1 {
		t.Fatalf("SIGKILLed run exited with code %d, want signal death", code)
	}
	if kOut != "" {
		t.Fatalf("killed run produced stdout %q before finishing", kOut)
	}

	// Simulate the torn write a crash can leave behind: a partial line with
	// no newline, no sum. Resume must truncate it and carry on.
	jPath := filepath.Join(dir, "cp.jsonl")
	f, err := os.OpenFile(jPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":{"type":"chunk","seq":9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Rerun the same command: it resumes the log, verifies the logged
	// payloads, computes the rest, and prints byte-identical output.
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
// stops at the next chunk boundary, seals the log "interrupted", and exits
// 143 — and rerunning the same command resumes the sealed-interrupted log
// and finishes the campaign.
func TestSIGTERMSealsInterrupted(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, killScenario)
	_, stderr, code := startAndSignal(t, dir, scPath, 1, syscall.SIGTERM)
	if code != 143 {
		t.Fatalf("SIGTERM exit %d, want 143\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "terminated") || !strings.Contains(stderr, "rerun the same command") {
		t.Fatalf("stderr does not report termination and how to resume:\n%s", stderr)
	}
	jPath := filepath.Join(dir, "cp.jsonl")
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
// campaign: clean log → exit 0; corrupted chunk digest or payload → exit 3
// with the mismatch named (and a run over the corrupted payload refused,
// the log left as it was); torn tail → warned, valid prefix verified.
func TestVerifySubcommand(t *testing.T) {
	dir := t.TempDir()
	scPath := writeScenario(t, dir, smokeScenario)
	jPath := filepath.Join(dir, "cp.jsonl")
	_, stderr, code := runBin(t, campaignArgs(scPath, dir)...)
	if code != 0 {
		t.Fatalf("campaign exit %d\n%s", code, stderr)
	}

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
		resumeDir := t.TempDir()
		data, err := os.ReadFile(lie)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(resumeDir, "cp.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code = runBin(t, campaignArgs(writeScenario(t, resumeDir, smokeScenario), resumeDir)...)
		if code != 1 || !strings.Contains(stderr, "fail their digest check") {
			t.Fatalf("resume of tampered payload: exit %d, want 1 naming the chunk\n%s", code, stderr)
		}
		if after, err := os.ReadFile(filepath.Join(resumeDir, "cp.jsonl")); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("refused resume modified the tampered log (%v)", err)
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
// payloads): verify and a run over a copy both refuse it naming its
// schema, and the file stays as it was.
func TestV1LogRefused(t *testing.T) {
	const fixture, v1 = "testdata/smoke-v1.journal", "relaxfault-journal/v1"
	_, stderr, code := runBin(t, "verify", "-journal", fixture, "-progress", "0")
	if code != 1 || !strings.Contains(stderr, v1) {
		t.Fatalf("verify of the v1 log: exit %d, want 1 naming %s\n%s", code, v1, stderr)
	}

	dir := t.TempDir()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "cp.jsonl")
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runBin(t, campaignArgs(writeScenario(t, dir, smokeScenario), dir)...)
	if code != 1 || !strings.Contains(stderr, v1) {
		t.Fatalf("run over the v1 log: exit %d, want 1 naming %s\n%s", code, v1, stderr)
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("refused run modified the v1 log (%v)", err)
	}
}
