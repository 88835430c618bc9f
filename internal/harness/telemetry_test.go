package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe for concurrent writers (the Monitor
// serialises writes itself; the buffer lock just keeps the reads race-free).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestEventJSONL checks that every Event call produces exactly one valid
// JSON line with the reserved time/type keys plus the caller's fields.
func TestEventJSONL(t *testing.T) {
	var buf syncBuffer
	m := NewMonitor(nil, 0)
	m.SetEventWriter(&buf)
	m.Event("progress", map[string]any{"trials_done": 7})
	m.Event("run_done", map[string]any{"exit_code": 0})

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var types []string
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		types = append(types, typ)
		if ts, _ := rec["time"].(string); ts == "" {
			t.Errorf("%s event missing time", typ)
		} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
			t.Errorf("%s event time %q: %v", typ, ts, err)
		}
	}
	if want := []string{"progress", "run_done"}; fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event types %v, want %v", types, want)
	}

	// Nil monitor and unset writer are silent no-ops.
	var nilMon *Monitor
	nilMon.Event("x", nil)
	NewMonitor(nil, 0).Event("x", nil)
}

// TestLogLinesNeverInterleave hammers the monitor's writer from concurrent
// warnings and reports; every emitted line must be one of the complete
// expected forms (the bug this guards against: interleaved partial
// lines from unsynchronised Fprintf calls).
func TestLogLinesNeverInterleave(t *testing.T) {
	var buf syncBuffer
	m := NewMonitor(&buf, 0)
	m.Expect(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 2 {
				case 0:
					m.Warnf("worker %d iteration %d", w, i)
				default:
					m.WorkerDone(0, 1)
					m.report(time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "harness: warning: worker "):
		case strings.HasPrefix(line, "harness: ") && strings.Contains(line, "trials"):
		default:
			t.Fatalf("interleaved or malformed line: %q", line)
		}
	}
}

// TestManifestWriteFile round-trips a manifest through its atomic writer.
func TestManifestWriteFile(t *testing.T) {
	m := NewManifest()
	if m.Schema != ManifestSchema || len(m.Command) == 0 || m.GoVersion == "" {
		t.Fatalf("incomplete manifest header: %+v", m)
	}
	m.Experiments = []string{"fig13"}
	m.Seed = 7
	m.TrialsDone = 42
	m.Finish()
	if m.WallSeconds < 0 || m.End.Before(m.Start) {
		t.Fatalf("bad timing: start %v end %v", m.Start, m.End)
	}
	if m.Metrics == nil {
		t.Fatal("Finish did not capture a metrics snapshot")
	}

	path := filepath.Join(t.TempDir(), "run.manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ManifestSchema || back.TrialsDone != 42 || back.Seed != 7 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files next to manifest: %v", entries)
	}
}
