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

	// A digest-only log of the retired relaxfault-journal/v1 format, which
	// no longer loads.
	f.Add([]byte(`{"rec":{"type":"open","seq":1,"schema":"relaxfault-journal/v1","seed":7},"sum":"fnv64:72f05f54c6627d7c"}
{"rec":{"type":"chunk","seq":2,"section":"run-abc","section_fp":"abc","trial_hi":4096,"digest":"sha256:5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"},"sum":"fnv64:b4b464e973af0d75"}
{"rec":{"type":"seal","seq":3,"status":"complete","chunks":1},"sum":"fnv64:a6e8a4a8dc8db91a"}
`))

	neg := filepath.Join(dir, "neg.jsonl")
	w, err := Create(neg)
	if err != nil {
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
