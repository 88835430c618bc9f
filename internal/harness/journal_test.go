package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"relaxfault/internal/journal"
)

// openLogStore opens the campaign log at path as a Store and closes its
// writer when the test ends.
func openLogStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := OpenStore(path, journal.Record{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Journal().Close() })
	return s
}

// TestPutJournalsBeforeCheckpoint: Put logs each chunk with the section's
// own span for it (the short last chunk included) before the chunk enters
// the view, and the record carries the view's payload bytes.
func TestPutJournalsBeforeCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	s := openLogStore(t, path)
	cp := s.Section(Section{Name: "run-xyz", Fingerprint: "xyz", Chunking: Chunking{Size: 4096, Trials: 6000}})
	type payload struct{ V int }
	if err := cp.Put(0, payload{41}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := cp.Put(1, payload{42}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	raw, ok := cp.Get(1)
	if !ok || string(raw) != `{"V":42}` {
		t.Fatalf("view holds %s (%v) after Put", raw, ok)
	}

	j, err := journal.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if j.Open.Schema != journal.Schema || j.ChunkRecords != 2 {
		t.Fatalf("log has schema %s and %d chunk records, want %s and 2", j.Open.Schema, j.ChunkRecords, journal.Schema)
	}
	rec := j.Chunks[1]
	if rec.Section != "run-xyz" || rec.SectionFP != "xyz" || rec.Chunk != 1 ||
		rec.TrialLo != 4096 || rec.TrialHi != 6000 {
		t.Fatalf("chunk record wrong: %+v", rec)
	}
	if !bytes.Equal(rec.Payload, raw) || rec.Digest != journal.Digest(raw) {
		t.Fatalf("record carries payload %s digest %s; want the view's bytes %s and their digest", rec.Payload, rec.Digest, raw)
	}
}

// writeLog logs chunks 0..n-1 of section run/fp1, unsealed, and returns the
// log's path and bytes.
func writeLog(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp := openLogStore(t, path).Section(runSec)
	for i := 0; i < n; i++ {
		if err := cp.Put(i, payload{A: float64(i), B: i}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// oneRecordLog returns the bytes of a log holding rec alone, framed and
// summed as the writer frames every record.
func oneRecordLog(t *testing.T, rec journal.Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refuseThenRestart writes body as the campaign log and pins the contract
// for a log that cannot resume: opening it fails with an error naming the
// file and mentioning wantErr (never a silent empty resume) and leaves the
// file as it was; once the file is removed, the path starts a fresh log,
// which then resumes.
func refuseThenRestart(t *testing.T, body []byte, wantErr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(path, journal.Record{})
	if err == nil {
		t.Fatalf("log %q: resume must fail, not start empty", body)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("log %q: error %q does not name the file and %q", body, err, wantErr)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, body) {
		t.Fatalf("log %q: the refused open changed the file to %q (%v)", body, after, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	s := openLogStore(t, path)
	if err := s.Section(runSec).Put(0, payload{B: 1}); err != nil {
		t.Fatal(err)
	}
	s.Journal().Close()
	if got := openLogStore(t, path).Section(runSec).Indexes(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("log %q: the fresh log resumes with chunks %v, want [0]", body, got)
	}
}

// TestOpenStoreEmptyFile: a zero-length log (creation raced a kill before
// the open record reached the disk) refuses the resume and is left as it
// was.
func TestOpenStoreEmptyFile(t *testing.T) {
	refuseThenRestart(t, nil, "empty journal")
}

// TestOpenStoreCorruptFile: an open record whose bytes no longer match its
// line sum refuses the resume and is left as it was.
func TestOpenStoreCorruptFile(t *testing.T) {
	_, data := writeLog(t, 1)
	bad := bytes.Replace(data, []byte(`"seed":1`), []byte(`"seed":7`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("open record carries no seed to alter:\n%s", data)
	}
	refuseThenRestart(t, bad, "line sum mismatch")
}

// TestOpenStoreCorruptionPaths pins what the open path does with every log
// that is damaged or does not describe the run: a torn tail is cut and the
// valid prefix resumes; a file that does not start with a valid open
// record, a complete-sealed log, or a payload that fails its digest,
// refuses the resume with an error naming it and stays as it was; and
// neither another configuration's records nor a chunk whose append failed
// ever reaches the view.
func TestOpenStoreCorruptionPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"torn tail keeps the valid prefix", func(t *testing.T) {
			path, data := writeLog(t, 3)
			// Cut into chunk 2's record: the open record and chunks 0-1 stay.
			if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
				t.Fatal(err)
			}
			s := openLogStore(t, path)
			if got := s.Section(runSec).Indexes(); !reflect.DeepEqual(got, []int{0, 1}) || s.Verified() != 2 {
				t.Fatalf("view holds %v (%d verified), want [0 1] (2)", got, s.Verified())
			}
			j, err := journal.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if j.TornBytes != 0 || j.Records != 4 {
				t.Fatalf("log not cut to its prefix plus a resume record: %d records, %d torn bytes", j.Records, j.TornBytes)
			}
		}},
		{"truncated to one byte", func(t *testing.T) {
			_, data := writeLog(t, 1)
			refuseThenRestart(t, data[:1], "truncated line")
		}},
		{"invalid JSON", func(t *testing.T) {
			refuseThenRestart(t, []byte("{not json at all\n"), "undecodable envelope")
		}},
		{"empty object (version 0)", func(t *testing.T) {
			refuseThenRestart(t, []byte("{}\n"), "line sum mismatch")
		}},
		{"future version", func(t *testing.T) {
			future := oneRecordLog(t, journal.Record{Type: journal.TypeOpen, Schema: "relaxfault-journal/v99"})
			refuseThenRestart(t, future, `schema "relaxfault-journal/v99"`)
		}},
		{"first line not a valid open record", func(t *testing.T) {
			chunk := oneRecordLog(t, journal.Record{Type: journal.TypeChunk, Section: "run", SectionFP: "fp1"})
			refuseThenRestart(t, chunk, `first record is "chunk"`)
		}},
		{"v1 log", func(t *testing.T) {
			v1 := oneRecordLog(t, journal.Record{Type: journal.TypeOpen, Schema: "relaxfault-journal/v1"})
			refuseThenRestart(t, v1, `schema "relaxfault-journal/v1"`)
		}},
		{"complete seal", func(t *testing.T) {
			path, _ := writeLog(t, 2)
			w, _, err := journal.Resume(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Seal(journal.StatusComplete); err != nil {
				t.Fatal(err)
			}
			w.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			refuseThenRestart(t, data, "sealed complete")
		}},
		{"mismatched fingerprint is ignored", func(t *testing.T) {
			path, _ := writeLog(t, 2)
			j, err := journal.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for fp, want := range map[string]int{"fp2": 0, "fp1": 2} {
				s, err := LoadStore(j, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Section(Section{Name: "run", Fingerprint: fp}).Indexes(); len(got) != want {
					t.Errorf("section under %s holds chunks %v, want %d", fp, got, want)
				}
			}
		}},
		{"log write failure keeps the chunk out of the view", func(t *testing.T) {
			path, _ := writeLog(t, 0)
			s := openLogStore(t, path)
			s.Journal().Close() // closed handle: the next append fails
			cp := s.Section(runSec)
			if err := cp.Put(0, payload{}); err == nil {
				t.Fatal("Put with a broken log must fail")
			}
			if _, ok := cp.Get(0); ok {
				t.Fatal("chunk entered the view although its record never reached the log")
			}
		}},
		{"payload digest mismatch refuses the resume", func(t *testing.T) {
			path, _ := writeLog(t, 3)
			j, err := journal.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			// A validly framed lie: chunk 1's payload altered, its digest kept.
			lie := filepath.Join(t.TempDir(), "lie.jsonl")
			w, err := journal.Create(lie)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for _, rec := range append([]journal.Record{*j.Open}, j.Chunks...) {
				if rec.Type == journal.TypeChunk && rec.Chunk == 1 {
					rec.Payload = json.RawMessage(`{"a":999,"b":1}`)
				}
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(lie)
			if err != nil {
				t.Fatal(err)
			}
			refuseThenRestart(t, data, "run chunk 1")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
