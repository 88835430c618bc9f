package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"relaxfault/internal/journal"
)

// Store is the in-memory view over one campaign log (package journal): the
// completed work chunks of one or more simulator runs. Each run owns a
// Section keyed by a fingerprint of its configuration; within a section,
// chunks are opaque JSON payloads keyed by chunk index. The log is the only
// durable artifact: Put appends one fsync'd chunk record carrying the
// payload before the chunk enters the view, and LoadStore rebuilds the view
// by replaying a log's valid prefix.
//
// Chunk payloads are produced and consumed by the simulators; because Go's
// JSON encoding of float64 uses the shortest round-trippable representation,
// a resumed run reloads bitwise-identical chunk statistics, and chunk-ordered
// reduction then reproduces the uninterrupted run's output byte for byte.
type Store struct {
	mu       sync.Mutex
	sections map[string]*sectionData
	// w receives one chunk record per Put; nil keeps the view in memory
	// only (cache hits, seeding sources, tests).
	w *journal.Writer
	// verified counts the logged chunks LoadStore checked against their
	// digests.
	verified int
}

type sectionData struct {
	Fingerprint string                     `json:"fingerprint"`
	Chunks      map[string]json.RawMessage `json:"chunks"`
}

// storeFile is the Snapshot encoding of the view.
type storeFile struct {
	Version  int                     `json:"version"`
	Sections map[string]*sectionData `json:"sections"`
}

// NewStore returns an empty view whose chunks Put appends through w
// (nil: the view stays in memory).
func NewStore(w *journal.Writer) *Store {
	return &Store{sections: make(map[string]*sectionData), w: w}
}

// LoadStore rebuilds the view of the log j and appends later chunks through
// w (nil for a read-only view). Each section takes the fingerprint of its
// last record, and each chunk the latest record under that fingerprint;
// records of other fingerprints describe an older configuration and are
// ignored. Every payload the view takes is checked against its digest: a
// mismatch is an error naming each bad chunk.
func LoadStore(j *journal.Journal, w *journal.Writer) (*Store, error) {
	fp := make(map[string]string)
	for _, rec := range j.Chunks {
		fp[rec.Section] = rec.SectionFP
	}
	latest := make(map[journal.ChunkKey]journal.Record)
	for _, rec := range j.Chunks {
		if rec.SectionFP == fp[rec.Section] {
			latest[journal.ChunkKey{Section: rec.Section, Chunk: rec.Chunk}] = rec
		}
	}
	s := NewStore(w)
	var bad []string
	for k, rec := range latest {
		if d := journal.Digest(rec.Payload); d != rec.Digest {
			bad = append(bad, fmt.Sprintf("%s chunk %d: payload digest %s, logged %s", k.Section, k.Chunk, d, rec.Digest))
			continue
		}
		sec := s.sections[k.Section]
		if sec == nil {
			sec = &sectionData{Fingerprint: rec.SectionFP, Chunks: make(map[string]json.RawMessage)}
			s.sections[k.Section] = sec
		}
		sec.Chunks[strconv.Itoa(k.Chunk)] = rec.Payload
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("harness: %s: %d logged chunk(s) fail their digest check:\n  %s",
			j.Path, len(bad), strings.Join(bad, "\n  "))
	}
	s.verified = len(latest)
	return s, nil
}

// OpenStore opens the campaign log at path as a Store whose Puts append to
// it, deciding from the file whether to start or continue. With no file at
// path it creates the log and appends head as the open record. An existing
// log is continued: journal.Resume cuts a torn tail and refuses a
// complete-sealed log, LoadStore rebuilds the view and checks every payload
// against its digest, and head is appended as a resume record. A file that
// cannot be continued is an error, and OpenStore appends nothing to it.
// head carries the seed and the embedded campaigns; OpenStore sets its
// type and schema.
func OpenStore(path string, head journal.Record) (*Store, error) {
	head.Type, head.Schema = journal.TypeOpen, journal.Schema
	var s *Store
	if _, err := os.Stat(path); err == nil {
		w, j, err := journal.Resume(path)
		if err != nil {
			return nil, err
		}
		if s, err = LoadStore(j, w); err != nil {
			w.Close()
			return nil, err
		}
		head.Type = journal.TypeResume
	} else {
		w, err := journal.Create(path)
		if err != nil {
			return nil, err
		}
		s = NewStore(w)
	}
	if err := s.w.Append(head); err != nil {
		s.w.Close()
		return nil, err
	}
	return s, nil
}

// Journal returns the log writer Put appends through (nil for a
// memory-only view). Safe on a nil Store.
func (s *Store) Journal() *journal.Writer {
	if s == nil {
		return nil
	}
	return s.w
}

// Verified returns how many logged chunks LoadStore checked against their
// digests (0 for a fresh view). Safe on a nil Store.
func (s *Store) Verified() int {
	if s == nil {
		return 0
	}
	return s.verified
}

// Snapshot encodes the view as
// {"version":1,"sections":{name:{"fingerprint":…,"chunks":{index:payload}}}}.
// Unlike the log, whose record order follows chunk completion, its bytes
// are the same for every worker count.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(storeFile{Version: 1, Sections: s.sections})
}

// Section returns the checkpoint of section sec, creating it if absent. A
// pre-existing section whose fingerprint does not match is discarded: the
// configuration changed, so its chunks no longer describe this run. Safe on
// a nil Store (returns a nil Checkpoint whose methods are no-ops).
func (s *Store) Section(sec Section) *Checkpoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.sections[sec.Name]; d == nil || d.Fingerprint != sec.Fingerprint {
		s.sections[sec.Name] = &sectionData{Fingerprint: sec.Fingerprint, Chunks: make(map[string]json.RawMessage)}
	}
	return &Checkpoint{store: s, sec: sec}
}

// Checkpoint is one run's view of a Store section. Methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so simulators can
// checkpoint unconditionally.
type Checkpoint struct {
	store *Store
	sec   Section
}

// Get returns the payload of chunk i, if present.
func (c *Checkpoint) Get(i int) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	raw, ok := c.store.sections[c.sec.Name].Chunks[strconv.Itoa(i)]
	return raw, ok
}

// Indexes returns the sorted chunk indexes present in the section.
func (c *Checkpoint) Indexes() []int {
	if c == nil {
		return nil
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	var out []int
	for k := range c.store.sections[c.sec.Name].Chunks {
		if i, err := strconv.Atoi(k); err == nil {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// PruneAbove drops every chunk with index greater than max from the view.
// Runs that stop early call it once the final reduction prefix is known, so
// the view holds exactly the chunks the result aggregates — speculative
// chunks computed by trailing workers are dropped and Snapshot is
// byte-identical for any worker count. The log keeps their records.
func (c *Checkpoint) PruneAbove(max int) {
	if c == nil {
		return
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	chunks := c.store.sections[c.sec.Name].Chunks
	for k := range chunks {
		if i, err := strconv.Atoi(k); err == nil && i > max {
			delete(chunks, k)
		}
	}
}

// Put persists chunk i's payload (marshalled to JSON) with its RNG fork
// coordinates: the section's trial range Span(i), whose per-trial streams
// are fork(trial) of the run's root seed. The chunk record is durably
// appended to the log before the chunk enters the view; if the append fails
// the chunk stays out of the view too, and a resumed run recomputes it.
func (c *Checkpoint) Put(i int, payload any) error {
	if c == nil {
		return nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("harness: encoding chunk %d: %w", i, err)
	}
	lo, hi := c.sec.Span(i)
	if err := c.store.w.AppendChunk(c.sec.Name, c.sec.Fingerprint, i, lo, hi, raw); err != nil {
		return fmt.Errorf("harness: logging chunk %d: %w (chunk left unpersisted)", i, err)
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	c.store.sections[c.sec.Name].Chunks[strconv.Itoa(i)] = raw
	return nil
}

// Fingerprint hashes an arbitrary sequence of configuration values into a
// short stable string. Runs use it to detect that a checkpoint section was
// written by a different configuration and must not be resumed from.
func Fingerprint(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\x00", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
