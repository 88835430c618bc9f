package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the log parser. It must never panic,
// its valid prefix is never longer than the input, and reparsing exactly
// that prefix gives the same records with nothing torn.
func FuzzParse(f *testing.F) {
	dir := f.TempDir()
	v2 := filepath.Join(dir, "v2.jsonl")
	writeSample(f, v2, 3, true)
	data, err := os.ReadFile(v2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-7]) // torn tail

	v1 := filepath.Join(dir, "v1.jsonl")
	w, err := Create(v1)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeOpen, Schema: SchemaV1, Seed: 7},
		{Type: TypeChunk, Section: "run-abc", SectionFP: "abc", TrialHi: 4096, Digest: Digest([]byte("0"))},
		{Type: TypeSeal, Status: StatusComplete, Chunks: 1},
	} {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	if data, err = os.ReadFile(v1); err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	neg := filepath.Join(dir, "neg.jsonl")
	if w, err = Create(neg); err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeOpen, Schema: Schema, Seed: 7},
		{Type: TypeChunk, Section: "run-abc", SectionFP: "abc", Chunk: -1, Payload: []byte("0"), Digest: Digest([]byte("0"))},
	} {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	if data, err = os.ReadFile(neg); err != nil {
		f.Fatal(err)
	}
	f.Add(data) // a chunk record with a negative index

	f.Fuzz(func(t *testing.T, data []byte) {
		j, n, _ := parse(data)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix of %d bytes in a %d-byte input", n, len(data))
		}
		again, m, reason := parse(data[:n])
		if m != n || reason != "" {
			t.Fatalf("reparsing the %d-byte valid prefix kept %d bytes (%s)", n, m, reason)
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("reparsing the valid prefix gave different records:\n%+v\n%+v", again, j)
		}
	})
}
