package harness

import (
	"encoding/json"
	"net/http"
	"time"
)

// WorkerStatus is one worker's live state in a Status snapshot.
type WorkerStatus struct {
	Worker int `json:"worker"`
	// Busy reports whether the worker is inside a chunk right now; Chunk is
	// that chunk's index (-1 while idle between chunks).
	Busy  bool `json:"busy"`
	Chunk int  `json:"chunk"`
	// Trials and TrialsPerSec cover the current engine run (since the pool
	// registered).
	Trials       int64   `json:"trials"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	// IdleSeconds is the time since the worker last completed a chunk.
	IdleSeconds float64 `json:"idle_seconds"`
}

// JournalHealth summarises the campaign journal for the status endpoint.
type JournalHealth struct {
	Path   string `json:"path"`
	Chunks uint64 `json:"chunks"`
	Sealed bool   `json:"sealed"`
	// Err carries the writer's latched append error; a non-empty value
	// means durability is gone and the run will fail its next append.
	Err string `json:"err,omitempty"`
}

// Status is a point-in-time snapshot of a run for GET /debug/status.
type Status struct {
	Time           string  `json:"time"`
	Experiment     string  `json:"experiment,omitempty"`
	TrialsDone     int64   `json:"trials_done"`
	TrialsTotal    int64   `json:"trials_total"`
	TrialsPerSec   float64 `json:"trials_per_sec"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds is the remaining-time estimate at the current rate; 0 when
	// no total is known or nothing has completed yet.
	ETASeconds  float64        `json:"eta_seconds"`
	BusyWorkers int            `json:"busy_workers"`
	Workers     []WorkerStatus `json:"workers,omitempty"`
	Journal     *JournalHealth `json:"journal,omitempty"`
}

// Status assembles a live snapshot of the monitor's counters, the
// registered worker pool (empty Workers outside an engine run) and the
// attached campaign log (no Journal block before SetJournal). Safe for
// concurrent use and on a nil receiver.
func (m *Monitor) Status() Status {
	now := time.Now()
	if m == nil {
		return Status{Time: now.UTC().Format(time.RFC3339Nano)}
	}
	m.mu.Lock()
	st := m.status(now)
	m.mu.Unlock()
	// Read outside m.mu: the writer's accessors wait out an fsync in
	// progress, and workers must not wait on that to book a chunk.
	if j := m.jw.Load(); j != nil {
		st.Journal = &JournalHealth{Path: j.Path(), Chunks: j.ChunkRecords(), Sealed: j.Sealed()}
		if err := j.Err(); err != nil {
			st.Journal.Err = err.Error()
		}
	}
	return st
}

// status is Status at time now without the Journal block; the caller holds
// m.mu.
func (m *Monitor) status(now time.Time) Status {
	st := Status{Time: now.UTC().Format(time.RFC3339Nano), Experiment: m.label}
	st.TrialsDone = m.done.Load()
	st.TrialsTotal = m.expected.Load()
	st.ElapsedSeconds = now.Sub(m.start).Seconds()
	if st.ElapsedSeconds > 0 {
		st.TrialsPerSec = float64(st.TrialsDone) / st.ElapsedSeconds
	}
	if st.TrialsPerSec > 0 && st.TrialsTotal > st.TrialsDone {
		st.ETASeconds = float64(st.TrialsTotal-st.TrialsDone) / st.TrialsPerSec
	}
	if n := len(m.workerChunk); n > 0 {
		poolElapsed := now.Sub(m.workersStart).Seconds()
		st.Workers = make([]WorkerStatus, n)
		for w := 0; w < n; w++ {
			ws := WorkerStatus{
				Worker:      w,
				Chunk:       m.workerChunk[w],
				Busy:        m.workerChunk[w] >= 0,
				Trials:      m.workerTrials[w],
				IdleSeconds: now.Sub(time.Unix(0, m.workerLast[w])).Seconds(),
			}
			if poolElapsed > 0 {
				ws.TrialsPerSec = float64(ws.Trials) / poolElapsed
			}
			if ws.Busy {
				st.BusyWorkers++
			}
			st.Workers[w] = ws
		}
	}
	return st
}

// StatusHandler serves the monitor's live Status as JSON on each GET. It is
// what the CLI mounts at /debug/status on the -pprof server.
func StatusHandler(m *Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Status())
	})
}
