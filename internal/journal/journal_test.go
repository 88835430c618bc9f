package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeSample writes an open record, n chunk records, and optionally a
// complete seal to a fresh journal at path.
func writeSample(t testing.TB, path string, n int, seal bool) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append(Record{Type: TypeOpen, Schema: Schema, Seed: 7}); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.AppendChunk("run-abc", "abc", i, i*4096, (i+1)*4096, json.RawMessage(strconv.Itoa(i))); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if seal {
		if err := w.Seal(StatusComplete); err != nil {
			t.Fatalf("seal: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	writeSample(t, path, 3, true)
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if j.TornBytes != 0 || j.TornReason != "" {
		t.Fatalf("clean journal reported torn tail: %d bytes (%s)", j.TornBytes, j.TornReason)
	}
	if j.Open == nil || j.Open.Seed != 7 || j.Open.Schema != Schema {
		t.Fatalf("open record mangled: %+v", j.Open)
	}
	if len(j.Chunks) != 3 || j.ChunkRecords != 3 {
		t.Fatalf("want 3 chunks, got %d (%d records)", len(j.Chunks), j.ChunkRecords)
	}
	if !j.SealedComplete() {
		t.Fatalf("want sealed complete, got %+v", j.Seal)
	}
	if j.Seal.Chunks != 3 {
		t.Fatalf("seal chunk count = %d, want 3", j.Seal.Chunks)
	}
	if j.LastSeq != 5 || j.Records != 5 {
		t.Fatalf("want 5 records ending at seq 5, got %d/%d", j.Records, j.LastSeq)
	}
	c1 := j.Chunks[1]
	if c1.Section != "run-abc" || c1.SectionFP != "abc" || c1.Chunk != 1 ||
		c1.TrialLo != 4096 || c1.TrialHi != 8192 || !strings.HasPrefix(c1.Digest, "sha256:") {
		t.Fatalf("chunk record mangled: %+v", c1)
	}
	if got := j.LatestChunks(); len(got) != 3 {
		t.Fatalf("LatestChunks = %d entries, want 3", len(got))
	}
}

func TestLatestChunkWinsOnDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, _ := Create(path)
	w.Append(Record{Type: TypeOpen, Schema: Schema})
	w.AppendChunk("s", "fp", 0, 0, 10, json.RawMessage(`"old"`))
	w.AppendChunk("s", "fp", 0, 0, 10, json.RawMessage(`"new"`))
	w.Close()
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rec := j.LatestChunks()[ChunkKey{"s", 0}]; string(rec.Payload) != `"new"` || rec.Digest != Digest([]byte(`"new"`)) {
		t.Fatalf("latest record carries %s (%s), want the second payload and its digest", rec.Payload, rec.Digest)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	writeSample(t, path, 4, false)
	data, _ := os.ReadFile(path)
	cleanLen := len(data)

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated mid-line", func(b []byte) []byte { return b[:len(b)-7] }},
		{"missing final newline", func(b []byte) []byte { return b[:len(b)-1] }},
		{"garbage appended", func(b []byte) []byte { return append(append([]byte{}, b...), []byte("{half a rec")...) }},
		{"flipped byte in last line", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[len(c)-10] ^= 0xff
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "t.journal")
			if err := os.WriteFile(p, tc.mut(append([]byte{}, data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			w, j, err := Resume(p)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			w.Close()
			if j.TornBytes == 0 || j.TornReason == "" {
				t.Fatalf("expected torn tail, got %d bytes (%q)", j.TornBytes, j.TornReason)
			}
			// The valid prefix holds the open record plus the chunks that
			// survived intact — for the tail mutations above, at least 3.
			if len(j.Chunks) < 3 {
				t.Fatalf("recovered only %d chunks", len(j.Chunks))
			}
			// The file must now be a clean journal that accepts appends.
			w, j2, err := Resume(p)
			if err != nil {
				t.Fatalf("Resume after recovery: %v", err)
			}
			if j2.TornBytes != 0 {
				t.Fatalf("second recovery still torn: %d bytes", j2.TornBytes)
			}
			if err := w.AppendChunk("run-abc", "abc", 99, 0, 1, json.RawMessage("99")); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := w.Seal(StatusComplete); err != nil {
				t.Fatalf("seal after recovery: %v", err)
			}
			w.Close()
			j3, err := Load(p)
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			if j3.TornBytes != 0 || !j3.SealedComplete() {
				t.Fatalf("resumed journal not clean+sealed: torn=%d seal=%+v", j3.TornBytes, j3.Seal)
			}
			if j3.LastSeq != j.LastSeq+2 {
				t.Fatalf("sequence did not continue: %d after %d", j3.LastSeq, j.LastSeq)
			}
		})
	}
	_ = cleanLen
}

func TestCorruptionMidFileDropsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	writeSample(t, path, 4, true)
	data, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Flip a byte inside the third line (chunk 1); the valid records after
	// it must be dropped too — a mid-file hole is not a recoverable tail.
	lines[2][10] ^= 0xff
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Chunks) != 1 {
		t.Fatalf("want exactly 1 surviving chunk before the corruption, got %d", len(j.Chunks))
	}
	if j.SealedComplete() {
		t.Fatal("seal after the corruption must not survive")
	}
}

func TestRecordsAfterCompleteSealAreTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	writeSample(t, path, 1, true)
	// Hand-append a perfectly framed record after the complete seal.
	rec, _ := json.Marshal(Record{Type: TypeChunk, Seq: 4, Section: "s", Chunk: 9})
	line, _ := json.Marshal(envelope{Rec: rec, Sum: lineSum(rec)})
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(append(line, '\n'))
	f.Close()
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if j.TornBytes == 0 || !strings.Contains(j.TornReason, "complete seal") {
		t.Fatalf("record after seal not rejected: torn=%d reason=%q", j.TornBytes, j.TornReason)
	}
	if len(j.Chunks) != 1 {
		t.Fatalf("prefix mangled: %d chunks", len(j.Chunks))
	}
}

func TestSequenceGapDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	// Hand-build: open seq 1, chunk seq 3 (gap).
	var buf bytes.Buffer
	for _, r := range []Record{
		{Type: TypeOpen, Schema: Schema, Seq: 1},
		{Type: TypeChunk, Section: "s", Chunk: 0, Seq: 3},
	} {
		rec, _ := json.Marshal(r)
		line, _ := json.Marshal(envelope{Rec: rec, Sum: lineSum(rec)})
		buf.Write(append(line, '\n'))
	}
	os.WriteFile(path, buf.Bytes(), 0o644)
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Chunks) != 0 || !strings.Contains(j.TornReason, "sequence gap") {
		t.Fatalf("gap not detected: chunks=%d reason=%q", len(j.Chunks), j.TornReason)
	}
}

// TestNegativeChunkIndexIsTorn: a validly framed chunk record with a
// negative index ends the valid prefix like a sequence gap, so Load reports
// it as the torn tail and Resume cuts it with everything after it.
func TestNegativeChunkIndexIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: TypeOpen, Schema: Schema, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, ci := range []int{0, -1, 1} {
		if err := w.AppendChunk("run-abc", "abc", ci, ci*4096, (ci+1)*4096, json.RawMessage(`0`)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	j, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Chunks) != 1 || j.TornBytes == 0 || !strings.Contains(j.TornReason, "negative index -1") {
		t.Fatalf("negative index not torn: chunks=%d torn=%d reason=%q", len(j.Chunks), j.TornBytes, j.TornReason)
	}
	w, rj, err := Resume(path)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	w.Close()
	if len(rj.Chunks) != 1 || rj.Chunks[0].Chunk != 0 {
		t.Fatalf("Resume kept chunks %+v, want chunk 0 alone", rj.Chunks)
	}
	if j, err = Load(path); err != nil || j.TornBytes != 0 || len(j.Chunks) != 1 {
		t.Fatalf("Resume did not cut the tail: %v, %d torn bytes, %d chunks", err, j.TornBytes, len(j.Chunks))
	}
}

func TestResumeRefusesCompleteSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	writeSample(t, path, 1, true)
	if _, _, err := Resume(path); err == nil {
		t.Fatal("Resume of a complete-sealed journal must fail")
	}
}

func TestResumeAfterInterruptedSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Type: TypeOpen, Schema: Schema})
	w.AppendChunk("s", "fp", 0, 0, 10, json.RawMessage("0"))
	if err := w.Seal(StatusInterrupted); err != nil {
		t.Fatalf("interrupted seal: %v", err)
	}
	w.Close()

	w2, j, err := Resume(path)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if j.SealedComplete() {
		t.Fatal("interrupted seal misread as complete")
	}
	if j.ChunkRecords != 1 || w2.ChunkRecords() != 1 {
		t.Fatalf("chunk accounting lost across resume: %d/%d", j.ChunkRecords, w2.ChunkRecords())
	}
	if err := w2.Append(Record{Type: TypeResume}); err != nil {
		t.Fatalf("resume record: %v", err)
	}
	w2.AppendChunk("s", "fp", 1, 10, 20, json.RawMessage("1"))
	if err := w2.Seal(StatusComplete); err != nil {
		t.Fatalf("final seal: %v", err)
	}
	w2.Close()
	j2, err := Load(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if !j2.SealedComplete() || j2.ChunkRecords != 2 || j2.Seal.Chunks != 2 {
		t.Fatalf("resumed journal wrong: sealed=%v chunks=%d sealCount=%d",
			j2.SealedComplete(), j2.ChunkRecords, j2.Seal.Chunks)
	}
}

func TestLoadRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	os.WriteFile(path, []byte("not a journal\n"), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("Load of a non-journal must fail")
	}
	os.WriteFile(path, nil, 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("Load of an empty file must fail")
	}
}

func TestDigestIsStable(t *testing.T) {
	d := Digest([]byte("payload"))
	if !strings.HasPrefix(d, "sha256:") || len(d) != len("sha256:")+64 {
		t.Fatalf("bad digest shape: %q", d)
	}
	if d != Digest([]byte("payload")) {
		t.Fatal("digest not deterministic")
	}
	if d == Digest([]byte("payloae")) {
		t.Fatal("digest collision on different payloads")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	for _, body := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Fatalf("read back %q (%v), want %q", got, err, body)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v); the temp file must not survive", len(ents), err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.json"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
