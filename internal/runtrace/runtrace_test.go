package runtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChromeGolden pins the exact Chrome trace_event JSON shape: header with
// epoch, process/thread metadata in track order, one complete event per span,
// args only where chunk/trials are meaningful.
func TestChromeGolden(t *testing.T) {
	r := New()
	r.Record(TrackMain, "campaign", -1, 0, 0, 5000)
	r.Record(0, SpanChunk, 0, 100, 1000, 3000)
	r.Record(1, SpanClaim, -1, 0, 1500, 2000)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	got := strings.ReplaceAll(buf.String(), r.Epoch().UTC().Format(time.RFC3339Nano), "EPOCH")

	want := `{"displayTimeUnit":"ms","otherData":{"epoch":"EPOCH"},"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"relaxfault"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"main"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"ts":0,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":1,"tid":10,"ts":0,"args":{"name":"worker 0"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":10,"ts":0,"args":{"sort_index":10}},
{"name":"thread_name","ph":"M","pid":1,"tid":11,"ts":0,"args":{"name":"worker 1"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":11,"ts":0,"args":{"sort_index":11}},
{"name":"campaign","ph":"X","pid":1,"tid":1,"ts":0,"dur":5},
{"name":"chunk","ph":"X","pid":1,"tid":10,"ts":1,"dur":2,"args":{"chunk":0,"trials":100}},
{"name":"claim","ph":"X","pid":1,"tid":11,"ts":1.5,"dur":0.5}
]}
`
	if got != want {
		t.Errorf("chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("output is not valid JSON")
	}
}

// TestChromeParses round-trips the export through encoding/json and checks
// the viewer-relevant invariants hold for a less contrived span set.
func TestChromeParses(t *testing.T) {
	r := New()
	for w := 0; w < 3; w++ {
		for c := 0; c < 4; c++ {
			base := int64(w*1000 + c*200)
			r.Record(w, SpanClaim, -1, 0, base, base+20)
			r.Record(w, SpanChunk, w*4+c, 50, base+20, base+180)
		}
	}
	r.Record(TrackJournal, "journal.append", -1, 0, 30, 60)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Epoch string `json:"epoch"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal export: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if _, err := time.Parse(time.RFC3339Nano, doc.OtherData.Epoch); err != nil {
		t.Errorf("epoch %q not RFC3339Nano: %v", doc.OtherData.Epoch, err)
	}
	var meta, complete int
	perTid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			perTid[ev.Tid]++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 3*4*2+1 {
		t.Errorf("complete events = %d, want %d", complete, 3*4*2+1)
	}
	for w := 0; w < 3; w++ {
		if perTid[10+w] != 8 {
			t.Errorf("worker %d events = %d, want 8", w, perTid[10+w])
		}
	}
	if perTid[3] != 1 {
		t.Errorf("journal track events = %d, want 1", perTid[3])
	}
	// 4 tracks seen -> process_name + 2 metadata events each.
	if meta != 1+4*2 {
		t.Errorf("metadata events = %d, want %d", meta, 1+4*2)
	}
}

// TestWriteChromeFile checks the atomic file export lands valid JSON and
// leaves no temp litter.
func TestWriteChromeFile(t *testing.T) {
	r := New()
	r.Record(0, SpanChunk, 0, 10, 0, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := r.WriteChromeFile(path); err != nil {
		t.Fatalf("WriteChromeFile: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if !json.Valid(b) {
		t.Fatalf("trace file is not valid JSON")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("dir has %d entries, want 1 (temp file left behind?)", len(ents))
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines, each
// writing to its own track and a shared synthetic track while readers snapshot
// concurrently. Run under -race this is the recorder's safety test; the final
// count check catches lost appends.
func TestRecorderConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 500
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := r.Now()
				r.Record(w, SpanChunk, i, 1, start, start+10)
				r.Span(TrackJournal, "journal.append", -1, 0, start)
			}
		}(w)
	}
	// Concurrent readers: exporting mid-run must be safe.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Spans()
			_ = Analyze(r)
			var buf bytes.Buffer
			_ = r.WriteChrome(&buf)
		}
	}()
	wg.Wait()
	<-done
	spans := r.Spans()
	if want := workers * perWorker * 2; len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}
}

// TestNilRecorder checks the nil no-op contract every instrumented call site
// relies on.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if r.Now() != 0 {
		t.Error("nil Now() != 0")
	}
	r.Record(0, SpanChunk, 0, 1, 0, 1) // must not panic
	r.Span(0, SpanClaim, -1, 0, 0)
	if got := r.Spans(); got != nil {
		t.Errorf("nil Spans() = %v, want nil", got)
	}
	rep := Analyze(r)
	if rep.Spans != 0 || len(rep.Workers) != 0 {
		t.Errorf("Analyze(nil) = %+v, want empty report", rep)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
}

// TestAnalyzeAttribution builds a two-worker schedule with known timings and
// checks the category accounting: per worker, busy + claim + checkpoint +
// reduce-wait + idle must equal the span-covered wall time exactly, nested
// checkpoint stalls move out of busy, and the critical path and stragglers
// come out right.
func TestAnalyzeAttribution(t *testing.T) {
	const sec = int64(1e9)
	r := New()
	// Worker 0: claim [0,1s), chunk 7 [1s,5s) containing a 1s checkpoint
	// stall, then reduce-wait [5s,10s).
	r.Record(0, SpanClaim, -1, 0, 0, 1*sec)
	r.Record(0, SpanChunk, 7, 4000, 1*sec, 5*sec)
	r.Record(0, SpanCheckpoint, 7, 0, 4*sec, 5*sec)
	r.Record(0, SpanReduceWait, -1, 0, 5*sec, 10*sec)
	// Worker 1: chunk 8 [0,8s), nothing else -> 2s idle.
	r.Record(1, SpanChunk, 8, 4000, 0, 8*sec)
	// Synthetic tracks must not enter attribution.
	r.Record(TrackJournal, "journal.append", -1, 0, 0, 9*sec)
	r.Record(TrackMain, "campaign", -1, 0, 0, 20*sec)

	rep := Analyze(r)
	if rep.WallSeconds != 10 {
		t.Fatalf("wall = %v, want 10 (worker extent only)", rep.WallSeconds)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(rep.Workers))
	}
	w0, w1 := rep.Workers[0], rep.Workers[1]
	if w0.Worker != 0 || w1.Worker != 1 {
		t.Fatalf("worker order = %d,%d", w0.Worker, w1.Worker)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("w0 busy", w0.BusySeconds, 3)
	check("w0 claim", w0.ClaimSeconds, 1)
	check("w0 checkpoint", w0.CheckpointSeconds, 1)
	check("w0 reduce", w0.ReduceWaitSeconds, 5)
	check("w0 idle", w0.IdleSeconds, 0)
	check("w1 busy", w1.BusySeconds, 8)
	check("w1 idle", w1.IdleSeconds, 2)
	for _, w := range rep.Workers {
		sum := w.BusySeconds + w.ClaimSeconds + w.CheckpointSeconds + w.ReduceWaitSeconds + w.IdleSeconds
		check(fmt.Sprintf("w%d category sum", w.Worker), sum, rep.WallSeconds)
		pct := w.BusyPct + w.ClaimPct + w.CheckpointPct + w.ReduceWaitPct + w.IdlePct
		check(fmt.Sprintf("w%d pct sum", w.Worker), pct, 100)
	}
	// Critical path: worker 1's busy 8s beats worker 0's 3+1+1.
	check("critical path", rep.CriticalPathSeconds, 8)
	if w0.Chunks != 1 || w0.Trials != 4000 || w0.LongestChunk != 7 {
		t.Errorf("w0 chunk stats = %+v", w0)
	}
	if len(rep.Stragglers) != 2 {
		t.Fatalf("stragglers = %d, want 2", len(rep.Stragglers))
	}
	if rep.Stragglers[0].Chunk != 8 || rep.Stragglers[1].Chunk != 7 {
		t.Errorf("straggler order = %+v", rep.Stragglers)
	}
	if rep.String() == "" || !strings.Contains(rep.String(), "worker") {
		t.Errorf("String() output unusable: %q", rep.String())
	}
}

// TestAnalyzeStragglerCap checks the straggler list is bounded.
func TestAnalyzeStragglerCap(t *testing.T) {
	r := New()
	for c := 0; c < 20; c++ {
		base := int64(c) * 100
		r.Record(0, SpanChunk, c, 1, base, base+int64(c+1))
	}
	rep := Analyze(r)
	if len(rep.Stragglers) != maxStragglers {
		t.Fatalf("stragglers = %d, want %d", len(rep.Stragglers), maxStragglers)
	}
	if rep.Stragglers[0].Chunk != 19 {
		t.Errorf("slowest straggler = chunk %d, want 19", rep.Stragglers[0].Chunk)
	}
}
