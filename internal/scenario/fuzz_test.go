package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the spec decoder, seeded with every
// preset's canonical form and the example specs. Decoding must never
// panic, and a spec that decodes must re-decode from its canonical form to
// the same fingerprint.
func FuzzDecode(f *testing.F) {
	for _, e := range Presets() {
		sc, err := Preset(e.Name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := sc.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example specs found (%v)", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil {
			return
		}
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatalf("decoded spec has no fingerprint: %v", err)
		}
		canon, err := sc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, canon)
		}
		if fp2, err := again.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("canonical form fingerprints to %s (%v), want %s", fp2, err, fp)
		}
	})
}
