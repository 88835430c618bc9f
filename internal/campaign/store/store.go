// Package store is the content-addressed campaign result store. Entries
// live at <root>/<campaign fingerprint>/<seed>/t<trials>/ — one directory
// per (budget-free scenario identity, seed, elastic trial budget) — and
// hold the campaign's log and metadata. Only a campaign that checkpoints
// chunks (a coverage or reliability scenario) has an entry. The entry
// metadata file is written atomically and last, so its presence is the
// completeness marker: Lookup only ever surfaces entries whose artifacts
// are fully sealed, which is what lets readers skip locking.
//
// Lookup is budget-aware. A completed entry at the exact requested budget
// is a pure hit; a completed larger budget — or an estimator run that
// stopped on its confidence target, whose result is a deterministic prefix
// property and therefore the answer for every larger budget too — covers
// the request with no new trials; and failing that, the largest smaller
// completed budget is the best seed for a resume. Writers serialise per
// entry directory with an O_EXCL claim file carrying the owner's pid; a
// claim whose pid is gone is stale and taken over, a claim whose pid is
// alive makes the second opener fail cleanly without touching the winner's
// artifacts.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
)

// MetaSchema versions the entry metadata document. Version 2 entries keep
// one payload-bearing log; version 1 entries are invisible to Lookup.
const MetaSchema = "relaxfault-campaign-entry/v2"

// StatusComplete marks a sealed, fully-written entry. Entries claim their
// directory while running and only gain a metadata file once complete, so
// no other status value is ever persisted.
const StatusComplete = "complete"

// Artifact file names inside an entry directory. CheckpointFile is the
// campaign log (package journal).
const (
	MetaFile       = "entry.json"
	CheckpointFile = "checkpoint.jsonl"
	claimFile      = ".claim"
)

// Meta is the entry metadata document (MetaFile).
type Meta struct {
	Schema string `json:"schema"`
	// Key and Seed are the store coordinates; Trials is the elastic budget
	// the entry was computed at.
	Key    string `json:"key"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	// Name and ScenarioFingerprint identify the exact scenario that
	// produced the entry (the full fingerprint, budget included).
	Name                string `json:"name"`
	ScenarioFingerprint string `json:"scenario_fingerprint"`
	// Version is the build revision of the binary that computed the entry
	// (harness.BuildVersion).
	Version string `json:"version,omitempty"`
	// Stopped records that a sequential-stopping run hit its confidence
	// target before the budget; such an entry satisfies every larger
	// budget request (the stopping cutoff is a prefix property).
	Stopped bool `json:"stopped,omitempty"`
	// Sections are the entry's checkpoint sections at the budget it was
	// computed with; seeding a different budget maps sections by index and
	// copies each chunk whose span both budgets agree on.
	Sections    []harness.Section `json:"sections,omitempty"`
	Status      string            `json:"status"`
	Created     string            `json:"created"`
	WallSeconds float64           `json:"wall_seconds"`
}

// Entry is one completed store entry: its directory and parsed metadata.
type Entry struct {
	Dir  string
	Meta Meta
}

// Path returns the path of one of the entry's artifact files.
func (e *Entry) Path(name string) string { return filepath.Join(e.Dir, name) }

// Store is a handle on a store root directory.
type Store struct {
	root string
}

// Open opens (creating if necessary) a store root.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, errors.New("campaign store: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	return &Store{root: root}, nil
}

// Root returns the store root directory.
func (s *Store) Root() string { return s.root }

// EntryDir is the directory for (key, seed, trials). Trials are zero-padded
// so lexical directory order is numeric order.
func (s *Store) EntryDir(key string, seed uint64, trials int) string {
	return filepath.Join(s.root, key, strconv.FormatUint(seed, 10), fmt.Sprintf("t%012d", trials))
}

// Rel returns dir relative to the store root (for manifests and listings);
// it falls back to the absolute path when dir is outside the root.
func (s *Store) Rel(dir string) string {
	if rel, err := filepath.Rel(s.root, dir); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return dir
}

// readEntry loads a completed entry's metadata; it returns nil (no error)
// when the directory holds no complete entry.
func readEntry(dir string) (*Entry, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign store: %s: %w", filepath.Join(dir, MetaFile), err)
	}
	if m.Schema != MetaSchema || m.Status != StatusComplete {
		return nil, nil
	}
	return &Entry{Dir: dir, Meta: m}, nil
}

// entriesFor lists the completed entries under (key, seed), sorted by
// ascending trials.
func (s *Store) entriesFor(key string, seed uint64) ([]*Entry, error) {
	dir := filepath.Join(s.root, key, strconv.FormatUint(seed, 10))
	des, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	var out []*Entry
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), "t") {
			continue
		}
		e, err := readEntry(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		if e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Trials < out[j].Meta.Trials })
	return out, nil
}

// Lookup resolves a request for (key, seed) at a trial budget. exact is
// the entry computed at precisely that budget, if any. src is the entry
// whose sealed log seeds a run at the budget: the cheapest completed entry
// whose results contain the request — the smallest larger budget, or a
// sequentially-stopped entry (its answer is final for every larger budget)
// — else the largest completed smaller budget. Either may be nil; only
// complete entries are ever returned, so a concurrent writer's half-built
// directory is invisible here.
func (s *Store) Lookup(key string, seed uint64, trials int) (exact, src *Entry, err error) {
	es, err := s.entriesFor(key, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range es { // ascending trials
		switch {
		case e.Meta.Trials == trials:
			exact = e
		case src == nil || src.Meta.Trials < trials && !src.Meta.Stopped:
			// Until an entry covers the request, each replaces the last:
			// the first to cover is the cheapest.
			src = e
		}
	}
	return exact, src, nil
}

// Entries lists every completed entry in the store, sorted by key, seed,
// then trials.
func (s *Store) Entries() ([]*Entry, error) {
	keys, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	var out []*Entry
	for _, kd := range keys {
		if !kd.IsDir() {
			continue
		}
		seeds, err := os.ReadDir(filepath.Join(s.root, kd.Name()))
		if err != nil {
			return nil, fmt.Errorf("campaign store: %w", err)
		}
		for _, sd := range seeds {
			if !sd.IsDir() {
				continue
			}
			seed, err := strconv.ParseUint(sd.Name(), 10, 64)
			if err != nil {
				continue
			}
			es, err := s.entriesFor(kd.Name(), seed)
			if err != nil {
				return nil, err
			}
			out = append(out, es...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i].Meta, &out[j].Meta
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Trials < b.Trials
	})
	return out, nil
}

// Evict removes every entry whose key starts with keyPrefix, refusing
// entries with a live claim. It returns the number of entry directories
// removed.
func (s *Store) Evict(keyPrefix string) (int, error) {
	if keyPrefix == "" {
		return 0, errors.New("campaign store: evict requires a key prefix")
	}
	keys, err := os.ReadDir(s.root)
	if err != nil {
		return 0, fmt.Errorf("campaign store: %w", err)
	}
	removed := 0
	for _, kd := range keys {
		if !kd.IsDir() || !strings.HasPrefix(kd.Name(), keyPrefix) {
			continue
		}
		keyDir := filepath.Join(s.root, kd.Name())
		err := filepath.WalkDir(keyDir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || d.Name() != claimFile {
				return err
			}
			return liveClaim(filepath.Dir(path), path)
		})
		if err != nil {
			return removed, err
		}
		n, err := countEntries(keyDir)
		if err != nil {
			return removed, err
		}
		if err := os.RemoveAll(keyDir); err != nil {
			return removed, fmt.Errorf("campaign store: %w", err)
		}
		removed += n
	}
	return removed, nil
}

func countEntries(keyDir string) (int, error) {
	n := 0
	err := filepath.WalkDir(keyDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == MetaFile {
			n++
		}
		return err
	})
	return n, err
}

// Claim is a held write claim on an entry directory.
type Claim struct {
	path string
}

// Claim takes the exclusive write claim on dir, creating the directory if
// needed. A live claim by another process is a clean error; a stale claim
// (owner pid gone, or unreadable garbage) is taken over.
func (s *Store) Claim(dir string) (*Claim, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	path := filepath.Join(dir, claimFile)
	err := publishClaim(dir, path)
	if errors.Is(err, os.ErrExist) {
		if err = liveClaim(dir, path); err == nil {
			err = takeOver(dir, path)
		}
	} else if err != nil {
		err = fmt.Errorf("campaign store: %w", err)
	}
	if err != nil {
		return nil, err
	}
	return &Claim{path: path}, nil
}

// liveClaim returns the error for a claim at path whose owner is running,
// and nil for a stale or missing one.
func liveClaim(dir, path string) error {
	if pid, ok := claimPid(path); ok && pidAlive(pid) {
		return fmt.Errorf("campaign store: %s is claimed by running pid %d", dir, pid)
	}
	return nil
}

// takeOver replaces the claim at path, found stale, with this process's.
// Only the holder of the O_EXCL takeover file may remove a claim, and it
// reads the claim again first: another process may have taken it over
// since, and removing that live claim would let two processes write one
// entry. A process that died mid-takeover leaves the file behind.
func takeOver(dir, path string) error {
	lock := path + ".takeover"
	f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("campaign store: cannot take over stale claim %s (remove %s if no process is taking it over): %w", path, lock, err)
	}
	f.Close()
	defer os.Remove(lock)
	if err := liveClaim(dir, path); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaign store: %w", err)
	}
	if err := publishClaim(dir, path); err != nil {
		return fmt.Errorf("campaign store: cannot take over stale claim %s: %w", path, err)
	}
	return nil
}

// publishClaim writes this process's pid to a private file and hard-links
// it to path, which fails with os.ErrExist if a claim is already there. The
// claim file thus never exists without its pid, so a racer that finds it
// cannot mistake a claim still being written for a stale one.
func publishClaim(dir, path string) error {
	f, err := os.CreateTemp(dir, claimFile+".*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = fmt.Fprintf(f, "%d\n", os.Getpid())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Link(f.Name(), path)
}

// Release drops the claim.
func (c *Claim) Release() error {
	if c == nil || c.path == "" {
		return nil
	}
	path := c.path
	c.path = ""
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaign store: %w", err)
	}
	return nil
}

func claimPid(path string) (int, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// pidAlive reports whether pid names a running process (signal 0 probes
// without delivering; EPERM still proves liveness).
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// WriteMeta atomically writes the entry metadata document — the last write
// of a successful campaign, flipping the entry to complete.
func WriteMeta(dir string, m Meta) error {
	if m.Schema == "" {
		m.Schema = MetaSchema
	}
	if m.Created == "" {
		m.Created = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign store: %w", err)
	}
	if err := journal.WriteFileAtomic(filepath.Join(dir, MetaFile), append(data, '\n')); err != nil {
		return fmt.Errorf("campaign store: %w", err)
	}
	return nil
}
