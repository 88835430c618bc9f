package store

import (
	"os"
	"path/filepath"
	"testing"

	"relaxfault/internal/harness"
)

// FuzzReadEntry feeds arbitrary bytes to the entry.json reader. It must
// never panic, and it surfaces an entry only when the document is a
// complete entry of the current schema.
func FuzzReadEntry(f *testing.F) {
	dir := f.TempDir()
	err := WriteMeta(dir, Meta{
		Key: "k", Seed: 7, Trials: 9000, Name: "t", ScenarioFingerprint: "fp",
		Sections: []harness.Section{{Name: "run-x", Fingerprint: "x", Chunking: harness.Chunking{Size: 4096, Trials: 9000}}},
		Status:   StatusComplete,
	})
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"schema":"relaxfault-campaign-entry/v1","status":"complete"}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := readEntry(dir)
		if err != nil || e == nil {
			return
		}
		if e.Dir != dir || e.Meta.Schema != MetaSchema || e.Meta.Status != StatusComplete {
			t.Fatalf("surfaced entry %+v from %q", e, data)
		}
	})
}
