// Package harness hardens the long-running Monte Carlo campaigns behind the
// paper's evaluation (Figures 10-14). The simulators in internal/relsim do
// the physics; this package supplies the operational layer a multi-hour
// paper-scale run needs to survive in practice:
//
//   - a Monitor that tracks trial throughput, prints progress/ETA lines on
//     stderr, and raises a watchdog warning when workers stall;
//   - a checkpoint Store (see checkpoint.go), the in-memory view over a
//     campaign's one append-only log (package journal): every completed
//     work chunk is logged with its payload, so a killed run rebuilds the
//     view from the log and resumes with bitwise identical final statistics;
//   - signal plumbing so an interactive ^C cancels the run's context and
//     lets in-flight chunks finish and checkpoint before the process exits.
//
// The package deliberately knows nothing about DRAM or repair planning: it
// deals only in chunks (opaque JSON payloads keyed by index) and trials
// (monotone counters). Both relsim.Run and relsim.CoverageStudy are clients.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relaxfault/internal/journal"
)

// Monitor is a run's one record of its progress: the engine books every
// chunk into it (WorkerClaim, WorkerDone), and the progress lines, the
// watchdog, JSONL progress events and /debug/status are all read from that
// record. All methods are safe for concurrent use and safe on a nil
// receiver, so simulators can report unconditionally. A Monitor from
// NewMonitor works without Start; Start adds the periodic stderr reporter
// and the stalled-worker watchdog.
type Monitor struct {
	out      io.Writer
	interval time.Duration
	// stallAfter is how long a worker may go without completing a chunk
	// before the watchdog names it.
	stallAfter time.Duration

	start        time.Time
	expected     atomic.Int64 // trials planned (grows as runs are added)
	done         atomic.Int64 // trials finished
	jw           atomic.Pointer[journal.Writer]
	mu           sync.Mutex
	label        string
	stopReporter chan struct{}
	reporterDone chan struct{}

	// Per-worker progress (all under mu): workerLast[w] is the unix-nano
	// time worker w last completed a chunk, workerWarned[w] latches its
	// stall warning until the worker advances again, workerChunk[w] is the
	// chunk the worker is currently executing (-1 between chunks), and
	// workerTrials[w] counts the trials it has completed since the pool
	// registered at workersStart. Registered by Engine.Run via
	// StartWorkers; empty outside an engine run, when no watchdog applies.
	workerLast   []int64
	workerWarned []bool
	workerChunk  []int
	workerTrials []int64
	workersStart time.Time

	// outMu serialises every write to out. Progress lines and warnings
	// race from the reporter goroutine and all workers; each message is
	// assembled off-lock and written in a single call so lines never
	// interleave mid-way.
	outMu sync.Mutex

	// events, when set, receives one JSON object per line for machine
	// consumption (progress samples, caller-defined run events).
	evMu   sync.Mutex
	events io.Writer
}

// NewMonitor creates a Monitor reporting to out every interval. A
// non-positive interval disables periodic reporting (counters still work).
// The watchdog threshold defaults to max(30s, 3*interval).
func NewMonitor(out io.Writer, interval time.Duration) *Monitor {
	stall := 30 * time.Second
	if 3*interval > stall {
		stall = 3 * interval
	}
	return &Monitor{out: out, interval: interval, stallAfter: stall, start: time.Now()}
}

// SetLabel names the phase shown in progress lines (e.g. the current CLI
// experiment).
func (m *Monitor) SetLabel(label string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.label = label
	m.mu.Unlock()
}

// Expect adds n trials to the planned total.
func (m *Monitor) Expect(n int64) {
	if m == nil {
		return
	}
	m.expected.Add(n)
}

// SetJournal attaches the campaign's live log writer, whose health the
// status snapshot reports (nil detaches it).
func (m *Monitor) SetJournal(w *journal.Writer) {
	if m == nil {
		return
	}
	m.jw.Store(w)
}

// StartWorkers registers a pool of n workers for per-worker stall tracking.
// Every worker starts "fresh" (stamped now); FinishWorkers deregisters the
// pool when the run ends so idle workers of a completed run never warn.
// Sequential runs sharing one Monitor simply re-register.
func (m *Monitor) StartWorkers(n int) {
	if m == nil || n <= 0 {
		return
	}
	now := time.Now().UnixNano()
	m.mu.Lock()
	m.workerLast = make([]int64, n)
	m.workerWarned = make([]bool, n)
	m.workerChunk = make([]int, n)
	m.workerTrials = make([]int64, n)
	m.workersStart = time.Unix(0, now)
	for i := range m.workerLast {
		m.workerLast[i] = now
		m.workerChunk[i] = -1
	}
	m.mu.Unlock()
}

// FinishWorkers drops per-worker stall tracking (the pool has drained).
func (m *Monitor) FinishWorkers() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.workerLast = nil
	m.workerWarned = nil
	m.workerChunk = nil
	m.workerTrials = nil
	m.mu.Unlock()
}

// WorkerClaim records that worker w is about to execute chunk k; the live
// status endpoint reports it as the worker's current chunk until WorkerDone.
func (m *Monitor) WorkerClaim(w, k int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if w >= 0 && w < len(m.workerChunk) {
		m.workerChunk[w] = k
	}
	m.mu.Unlock()
}

// WorkerDone records that worker w completed a chunk of n trials: it adds
// them to the run's total and stamps the worker's own progress clock, so
// the watchdog can name the one shard that stalls while the rest of the
// pool keeps advancing.
func (m *Monitor) WorkerDone(w int, n int64) {
	if m == nil {
		return
	}
	m.done.Add(n)
	m.mu.Lock()
	if w >= 0 && w < len(m.workerLast) {
		m.workerLast[w] = time.Now().UnixNano()
		m.workerWarned[w] = false
		m.workerChunk[w] = -1
		m.workerTrials[w] += n
	}
	m.mu.Unlock()
}

// logf writes one complete line to the monitor's writer under outMu, so
// concurrent progress lines and warnings never interleave.
func (m *Monitor) logf(format string, args ...any) {
	if m == nil || m.out == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if !strings.HasSuffix(msg, "\n") {
		msg += "\n"
	}
	m.outMu.Lock()
	io.WriteString(m.out, msg)
	m.outMu.Unlock()
}

// SetEventWriter directs machine-readable JSONL events to w (nil disables).
// Each Event call writes exactly one line; callers typically hand in a file
// opened next to the checkpoint.
func (m *Monitor) SetEventWriter(w io.Writer) {
	if m == nil {
		return
	}
	m.evMu.Lock()
	m.events = w
	m.evMu.Unlock()
}

// Event emits one JSONL record with the given type plus caller fields. The
// reserved keys "time" (RFC3339) and "type" are added here; fields sort into
// deterministic order via json.Marshal of the map. Safe for concurrent use
// and a silent no-op without an event writer.
func (m *Monitor) Event(typ string, fields map[string]any) {
	if m == nil {
		return
	}
	m.evMu.Lock()
	w := m.events
	m.evMu.Unlock()
	if w == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["time"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["type"] = typ
	b, err := json.Marshal(rec)
	if err != nil {
		m.logf("harness: warning: dropped %q event: %v", typ, err)
		return
	}
	b = append(b, '\n')
	m.evMu.Lock()
	w.Write(b)
	m.evMu.Unlock()
}

// Warnf prints one warning line to the monitor's writer (dropped when the
// monitor is nil or has no writer). Simulators use it for conditions that
// must not abort a long campaign, like checkpoint I/O failures.
func (m *Monitor) Warnf(format string, args ...any) {
	m.logf("harness: warning: "+format, args...)
}

// Skipped returns 0: no trial is ever skipped, because a panicking trial
// fails its run. It stays because the benchmark module (bench/measure.go)
// still checks it after every leg.
func (m *Monitor) Skipped() int64 { return 0 }

// DoneTrials returns the number of finished trials.
func (m *Monitor) DoneTrials() int64 {
	if m == nil {
		return 0
	}
	return m.done.Load()
}

// Start launches the periodic reporter goroutine and returns a stop function
// (idempotent). With a non-positive interval or nil writer it is a no-op.
func (m *Monitor) Start() (stop func()) {
	if m == nil || m.interval <= 0 || m.out == nil {
		return func() {}
	}
	m.mu.Lock()
	if m.stopReporter != nil {
		m.mu.Unlock()
		return func() {} // already running
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	m.stopReporter, m.reporterDone = stopCh, doneCh
	m.mu.Unlock()

	go func() {
		defer close(doneCh)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				m.report(time.Now())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-doneCh
		})
	}
}

// report prints one progress line, runs the per-worker watchdog and emits
// one progress event, all from one status snapshot. While a registered pool
// is mid-run, a worker that completes no chunk for stallAfter is named even
// though the other workers keep advancing, once per stall episode;
// completing a chunk re-arms it. The event's "stalled" means every
// registered worker is past the threshold.
func (m *Monitor) report(now time.Time) {
	// The whole report is assembled first and written in one call, so it
	// cannot interleave with worker warnings.
	var b strings.Builder
	m.mu.Lock()
	st := m.status(now)
	prefix := "harness"
	if st.Experiment != "" {
		prefix = "harness[" + st.Experiment + "]"
	}
	switch {
	case st.TrialsTotal > st.TrialsDone && st.TrialsPerSec > 0:
		eta := time.Duration(st.ETASeconds * float64(time.Second))
		fmt.Fprintf(&b, "%s: %d/%d trials (%.1f%%) %.0f trials/sec ETA %s\n", prefix, st.TrialsDone, st.TrialsTotal,
			100*float64(st.TrialsDone)/float64(st.TrialsTotal), st.TrialsPerSec, eta.Round(time.Second))
	case st.TrialsDone > 0:
		fmt.Fprintf(&b, "%s: %d trials %.0f trials/sec\n", prefix, st.TrialsDone, st.TrialsPerSec)
	}
	running := st.TrialsTotal <= 0 || st.TrialsDone < st.TrialsTotal
	stalled := running && len(m.workerLast) > 0
	for w, last := range m.workerLast {
		idle := now.Sub(time.Unix(0, last))
		if !running || idle < m.stallAfter {
			stalled = false
			continue
		}
		if !m.workerWarned[w] {
			m.workerWarned[w] = true
			fmt.Fprintf(&b, "%s: watchdog: worker %d/%d stalled: no chunk completed for %s\n",
				prefix, w, len(m.workerLast), idle.Round(time.Second))
		}
	}
	m.mu.Unlock()
	if b.Len() > 0 {
		m.logf("%s", b.String())
	}
	if st.TrialsDone > 0 {
		fields := map[string]any{
			"experiment":     st.Experiment,
			"trials_done":    st.TrialsDone,
			"trials_total":   st.TrialsTotal,
			"trials_per_sec": st.TrialsPerSec,
			"stalled":        stalled,
			"busy_workers":   st.BusyWorkers,
		}
		if len(st.Workers) > 0 {
			rates := make([]float64, len(st.Workers))
			for w, ws := range st.Workers {
				rates[w] = ws.TrialsPerSec
			}
			fields["workers_trials_per_sec"] = rates
		}
		m.Event("progress", fields)
	}
}
