// Package journal implements the append-only campaign log behind the
// `relaxfault-journal/v2` format: an fsync'd JSONL file holding one line per
// completed Monte Carlo chunk — section fingerprint, chunk index, RNG fork
// coordinates, the chunk's payload, and the payload's digest. The log is a
// campaign's only durable artifact: harness.Store rebuilds its view of the
// completed chunks by replaying the log's valid prefix, and `relaxfault
// verify` re-executes every logged chunk on any machine and proves the
// recomputation byte-identical.
//
// The log turns the repository's byte-identity guarantee from a test-time
// property into an operational one (the detectable-recoverability
// discipline of Memento, PLDI 2023): a campaign killed at any instant leaves
// a log whose valid prefix names exactly the work that durably completed, a
// resumed campaign checks every payload against its digest before trusting
// it, and `relaxfault verify` replays a sealed log end-to-end with no access
// to the original process.
//
// # On-disk format
//
// Each line is a self-verifying envelope:
//
//	{"rec":{...record...},"sum":"fnv64:<16 hex digits>"}
//
// where sum is the FNV-64a hash of the exact bytes of the rec value. A line
// whose trailing newline is missing, whose JSON does not parse, whose sum
// does not match, whose record sequence number is not the successor of the
// previous line, or which is a chunk record with a negative index is the
// start of a torn tail: recovery keeps the valid prefix and drops
// everything from the first bad byte (see Resume).
//
// Record types, in the order they may legally appear:
//
//	open   — first line: schema, seed, and the campaigns (embedded
//	         canonical scenario specs + fingerprints) this log covers
//	chunk  — one completed chunk: section name + fingerprint, chunk index,
//	         trial range [trial_lo, trial_hi) (the RNG fork coordinates:
//	         trial i draws from root.Fork(i)), the chunk's payload, and the
//	         SHA-256 digest of the payload bytes
//	resume — a process reopened the log to continue the campaign, with
//	         the campaigns it covers embedded as in the open record
//	seal   — clean shutdown: status "complete" (campaign finished) or
//	         "interrupted" (graceful SIGINT/SIGTERM; more records may
//	         follow after a resume)
//
// Records after a "complete" seal are treated as torn. Chunk records may
// repeat an index (a chunk recomputed because its logged payload did not
// decode); the latest record wins. A log whose open record names any
// schema but Schema does not load.
package journal

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
)

// Schema is the format tag of the open record of every log this package
// writes.
const Schema = "relaxfault-journal/v2"

// Record types (see the package comment for ordering rules).
const (
	TypeOpen   = "open"
	TypeChunk  = "chunk"
	TypeResume = "resume"
	TypeSeal   = "seal"
)

// Seal statuses.
const (
	StatusComplete    = "complete"
	StatusInterrupted = "interrupted"
)

// Campaign embeds one scenario a journal covers: its name, spec
// fingerprint, the memory technology it resolved to (the name plus a hash of
// every parameter the simulators consumed), and the canonical spec document.
// The spec is sufficient to re-lower the exact simulator configurations, so
// a journal alone (no preset registry, no original -scenario file) supports
// replay. Run manifests embed the same record for each scenario they ran.
type Campaign struct {
	Name            string          `json:"name"`
	Fingerprint     string          `json:"fingerprint"`
	Technology      string          `json:"technology,omitempty"`
	TechFingerprint string          `json:"tech_fingerprint,omitempty"`
	Spec            json.RawMessage `json:"spec"`
}

// Record is one journal line's payload. Fields are type-specific; consumers
// dispatch on Type.
type Record struct {
	Type string `json:"type"`
	// Seq is the monotonic per-journal sequence number, starting at 1; a
	// gap or repeat marks the torn tail.
	Seq uint64 `json:"seq"`

	// Open fields (a resume record carries Campaigns too).
	Schema    string     `json:"schema,omitempty"`
	Seed      uint64     `json:"seed,omitempty"`
	Campaigns []Campaign `json:"campaigns,omitempty"`

	// Chunk fields. Section is the checkpoint section name, SectionFP the
	// section's configuration fingerprint; TrialLo/TrialHi are the chunk's
	// RNG fork coordinates (trial i forks stream i of the root seed);
	// Payload is the chunk's payload and Digest is "sha256:<hex>" over its
	// bytes.
	Section   string          `json:"section,omitempty"`
	SectionFP string          `json:"section_fp,omitempty"`
	Chunk     int             `json:"chunk,omitempty"`
	TrialLo   int             `json:"trial_lo,omitempty"`
	TrialHi   int             `json:"trial_hi,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Payload   json.RawMessage `json:"payload,omitempty"`

	// Seal fields: Status plus the campaign-wide chunk-record count.
	Status string `json:"status,omitempty"`
	Chunks uint64 `json:"chunks,omitempty"`
}

// envelope is the on-disk line framing: Rec preserves the record's exact
// marshalled bytes so Sum verifies against what was written, not against a
// re-marshalling.
type envelope struct {
	Rec json.RawMessage `json:"rec"`
	Sum string          `json:"sum"`
}

// Digest returns the canonical chunk-payload digest: "sha256:<hex>".
func Digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("sha256:%x", sum)
}

// lineSum returns the per-line integrity sum: "fnv64:<hex>" over the
// marshalled record bytes.
func lineSum(rec []byte) string {
	h := fnv.New64a()
	h.Write(rec)
	return fmt.Sprintf("fnv64:%016x", h.Sum64())
}

// File is the sink a Writer appends to. *os.File satisfies it; the faultfs
// test package substitutes a fault-injecting wrapper.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// jm is the package's process-wide telemetry.
var jm = struct {
	records    *obs.Counter
	bytes      *obs.Counter
	fsyncs     *obs.Counter
	writeErrs  *obs.Counter
	recoveries *obs.Counter
	tornBytes  *obs.Counter
}{
	records:    obs.Default().Counter("journal.records"),
	bytes:      obs.Default().Counter("journal.bytes"),
	fsyncs:     obs.Default().Counter("journal.fsyncs"),
	writeErrs:  obs.Default().Counter("journal.write_errors"),
	recoveries: obs.Default().Counter("journal.torn_tail_recoveries"),
	tornBytes:  obs.Default().Counter("journal.torn_tail_bytes"),
}

// Writer appends records to a journal file. Every Append marshals one
// envelope line, writes it, and fsyncs before returning, so a record the
// caller saw succeed survives a crash at any later instant. Methods are
// safe for concurrent use.
//
// A write or sync error latches the writer broken: the failed record is not
// considered durable, every later Append returns the original error, and
// the campaign may continue unjournaled (callers degrade to a warning, the
// same contract checkpoint I/O errors follow).
type Writer struct {
	mu     sync.Mutex
	f      File
	path   string
	seq    uint64
	chunks uint64
	sealed bool
	err    error
	// tr, when attached, records each append's write+fsync as a span on
	// the journal trace track; because appends serialize under mu, the
	// track directly shows fsync serialization across workers.
	tr *runtrace.Recorder
}

// SetTracer directs a span per durable append to r's journal track (nil
// detaches). Safe on a nil writer.
func (w *Writer) SetTracer(r *runtrace.Recorder) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.tr = r
	w.mu.Unlock()
}

// Create creates (or truncates) the journal at path and returns a writer
// positioned at sequence 0; the caller appends the open record first. The
// file handle is opened with O_APPEND and the containing directory is
// fsync'd so the file's existence itself survives power loss.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	syncDir(filepath.Dir(path))
	return &Writer{f: f, path: path}, nil
}

// NewWriter wraps an already-open sink (tests inject faultfs files here).
func NewWriter(f File) *Writer { return &Writer{f: f} }

// Resume recovers the log at path — truncating any torn tail — and returns
// both the recovered contents and a writer that continues the sequence from
// the last valid record. A log sealed "complete" cannot be resumed; it is
// refused before the file is touched.
func Resume(path string) (*Writer, *Journal, error) {
	j, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	if j.SealedComplete() {
		return nil, nil, fmt.Errorf("journal: %s is sealed complete; refusing to append to a finished campaign", path)
	}
	if err := j.truncate(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopen %s: %w", path, err)
	}
	return &Writer{f: f, path: path, seq: j.LastSeq, chunks: j.ChunkRecords}, j, nil
}

// Path returns the journal file path ("" for writers over a bare File).
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
}

// Append assigns the next sequence number to rec and durably writes it.
// Safe on a nil writer (a no-op), so callers can journal unconditionally.
func (w *Writer) Append(rec Record) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.sealed && rec.Type != TypeResume {
		return fmt.Errorf("journal: appending %s record to a sealed journal", rec.Type)
	}
	rec.Seq = w.seq + 1
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	line, err := json.Marshal(envelope{Rec: body, Sum: lineSum(body)})
	if err != nil {
		return fmt.Errorf("journal: encode envelope: %w", err)
	}
	line = append(line, '\n')
	traceChunk := -1
	if rec.Type == TypeChunk {
		traceChunk = rec.Chunk
	}
	ioStart := w.tr.Now()
	defer func() { w.tr.Span(runtrace.TrackJournal, "journal.append", traceChunk, 0, ioStart) }()
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("journal: write: %w", err)
		jm.writeErrs.Inc()
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync: %w", err)
		jm.writeErrs.Inc()
		return w.err
	}
	w.seq = rec.Seq
	if rec.Type == TypeChunk {
		w.chunks++
	}
	if rec.Type == TypeSeal {
		w.sealed = rec.Status == StatusComplete
	} else {
		w.sealed = false
	}
	jm.records.Inc()
	jm.bytes.Add(int64(len(line)))
	jm.fsyncs.Inc()
	return nil
}

// AppendChunk logs one completed chunk: its payload and the payload's
// digest.
func (w *Writer) AppendChunk(section, sectionFP string, chunk, trialLo, trialHi int, payload json.RawMessage) error {
	return w.Append(Record{
		Type: TypeChunk, Section: section, SectionFP: sectionFP,
		Chunk: chunk, TrialLo: trialLo, TrialHi: trialHi,
		Digest: Digest(payload), Payload: payload,
	})
}

// Seal writes the closing record. Status StatusComplete freezes the
// journal; StatusInterrupted allows a later Resume to append more records.
func (w *Writer) Seal(status string) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	chunks := w.chunks
	w.mu.Unlock()
	return w.Append(Record{Type: TypeSeal, Status: status, Chunks: chunks})
}

// ChunkRecords returns how many chunk records this writer has appended
// (including ones recovered by Resume).
func (w *Writer) ChunkRecords() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chunks
}

// Sealed reports whether the last record was a "complete" seal.
func (w *Writer) Sealed() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealed
}

// Err returns the latched write error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close closes the underlying file. Safe on nil.
func (w *Writer) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory: write, fsync, rename over path, fsync the directory. Readers
// see the old file or the new one, never a torn one, and the new one
// survives power loss. Manifests and store entries are written this way.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename succeeded
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives power loss. Errors are ignored: not every platform or filesystem
// supports directory fsync, and the data-file sync already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
