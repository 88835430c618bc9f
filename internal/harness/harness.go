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
)

// Monitor aggregates progress across one or more simulator runs and
// periodically reports it. All methods are safe for concurrent use and safe
// on a nil receiver, so simulators can report unconditionally. A zero-ish
// Monitor (from NewMonitor) works without Start; Start adds the periodic
// stderr reporter and the stalled-worker watchdog.
type Monitor struct {
	out      io.Writer
	interval time.Duration
	// stallAfter is how long without a completed chunk counts as stalled.
	stallAfter time.Duration

	start        time.Time
	expected     atomic.Int64 // trials planned (grows as runs are added)
	done         atomic.Int64 // trials finished
	lastAdvance  atomic.Int64 // unix nanos of the last completed chunk
	stallWarned  atomic.Bool
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
	// StartWorkers; empty outside an engine run, in which case only the
	// run-global watchdog above applies.
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
	m := &Monitor{out: out, interval: interval, stallAfter: stall, start: time.Now()}
	m.lastAdvance.Store(time.Now().UnixNano())
	return m
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

// Done records n finished trials and feeds the watchdog.
func (m *Monitor) Done(n int64) {
	if m == nil {
		return
	}
	m.done.Add(n)
	m.lastAdvance.Store(time.Now().UnixNano())
	m.stallWarned.Store(false)
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

// WorkerDone records that worker w completed a chunk of n trials: it feeds
// the run-global counters exactly like Done and additionally stamps the
// worker's own progress clock, so the watchdog can name the one shard that
// stalls while the rest of the pool keeps the global clock advancing.
func (m *Monitor) WorkerDone(w int, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if w >= 0 && w < len(m.workerLast) {
		m.workerLast[w] = time.Now().UnixNano()
		m.workerWarned[w] = false
		m.workerChunk[w] = -1
		m.workerTrials[w] += n
	}
	m.mu.Unlock()
	m.Done(n)
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

// report prints one progress line, plus a watchdog warning when no chunk has
// completed for stallAfter.
func (m *Monitor) report(now time.Time) {
	done := m.done.Load()
	expected := m.expected.Load()
	elapsed := now.Sub(m.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	m.mu.Lock()
	label := m.label
	m.mu.Unlock()
	prefix := "harness"
	if label != "" {
		prefix = "harness[" + label + "]"
	}
	// Build the whole report off-lock and write it once, so a multi-line
	// report cannot interleave with worker warnings.
	var b strings.Builder
	switch {
	case expected > 0 && done < expected && rate > 0:
		eta := time.Duration(float64(expected-done) / rate * float64(time.Second))
		fmt.Fprintf(&b, "%s: %d/%d trials (%.1f%%) %.0f trials/sec ETA %s\n",
			prefix, done, expected, 100*float64(done)/float64(expected), rate, eta.Round(time.Second))
	case done > 0:
		fmt.Fprintf(&b, "%s: %d trials %.0f trials/sec\n", prefix, done, rate)
	}
	idle := now.Sub(time.Unix(0, m.lastAdvance.Load()))
	stalled := idle >= m.stallAfter && done > 0 && (expected <= 0 || done < expected)
	if stalled && m.stallWarned.CompareAndSwap(false, true) {
		fmt.Fprintf(&b, "%s: watchdog: no worker progress for %s\n", prefix, idle.Round(time.Second))
	}
	// Per-worker watchdog: while a registered pool is mid-run, a single
	// worker that stops completing chunks is named even though the other
	// workers keep the global progress clock ticking. Each worker warns
	// once per stall episode; completing a chunk re-arms it.
	if expected <= 0 || done < expected {
		m.mu.Lock()
		nw := len(m.workerLast)
		for w := 0; w < nw; w++ {
			wIdle := now.Sub(time.Unix(0, m.workerLast[w]))
			if wIdle >= m.stallAfter && !m.workerWarned[w] {
				m.workerWarned[w] = true
				fmt.Fprintf(&b, "%s: watchdog: worker %d/%d stalled: no chunk completed for %s\n",
					prefix, w, nw, wIdle.Round(time.Second))
			}
		}
		m.mu.Unlock()
	}
	if b.Len() > 0 {
		m.logf("%s", b.String())
	}
	if done > 0 {
		// Per-worker liveness: how many workers are inside a chunk right
		// now, and each worker's trial rate since the pool registered, so
		// the event stream alone answers "is a worker flat-lining".
		m.mu.Lock()
		busyWorkers := 0
		var workerRates []float64
		if n := len(m.workerChunk); n > 0 {
			poolElapsed := now.Sub(m.workersStart).Seconds()
			workerRates = make([]float64, n)
			for w := 0; w < n; w++ {
				if m.workerChunk[w] >= 0 {
					busyWorkers++
				}
				if poolElapsed > 0 {
					workerRates[w] = float64(m.workerTrials[w]) / poolElapsed
				}
			}
		}
		m.mu.Unlock()
		fields := map[string]any{
			"experiment":     label,
			"trials_done":    done,
			"trials_total":   expected,
			"trials_per_sec": rate,
			"stalled":        stalled,
			"busy_workers":   busyWorkers,
		}
		if workerRates != nil {
			fields["workers_trials_per_sec"] = workerRates
		}
		m.Event("progress", fields)
	}
}
