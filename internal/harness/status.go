package harness

import (
	"encoding/json"
	"net/http"
	"time"

	"relaxfault/internal/journal"
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

// Status assembles a live snapshot of the monitor's counters and the
// registered worker pool (empty Workers outside an engine run). Safe for
// concurrent use and on a nil receiver.
func (m *Monitor) Status() Status {
	now := time.Now()
	st := Status{Time: now.UTC().Format(time.RFC3339Nano)}
	if m == nil {
		return st
	}
	st.TrialsDone = m.done.Load()
	st.TrialsTotal = m.expected.Load()
	st.ElapsedSeconds = now.Sub(m.start).Seconds()
	if st.ElapsedSeconds > 0 {
		st.TrialsPerSec = float64(st.TrialsDone) / st.ElapsedSeconds
	}
	if st.TrialsPerSec > 0 && st.TrialsTotal > st.TrialsDone {
		st.ETASeconds = float64(st.TrialsTotal-st.TrialsDone) / st.TrialsPerSec
	}
	m.mu.Lock()
	st.Experiment = m.label
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
	m.mu.Unlock()
	return st
}

// StatusHandler serves the monitor's live Status as JSON on each GET. jw, if
// non-nil, is called per request to resolve the campaign journal writer (it
// may return nil — e.g. before the journal opens); its health is folded into
// the response. The handler is what the CLI mounts at /debug/status on the
// -pprof server.
func StatusHandler(m *Monitor, jw func() *journal.Writer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := m.Status()
		if jw != nil {
			if j := jw(); j != nil {
				jh := &JournalHealth{Path: j.Path(), Chunks: j.ChunkRecords(), Sealed: j.Sealed()}
				if err := j.Err(); err != nil {
					jh.Err = err.Error()
				}
				st.Journal = jh
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
