package relsim

import (
	"encoding/json"
	"fmt"
	"sync"

	"relaxfault/internal/harness"
)

// RunSection names the checkpoint/journal section a reliability run with the
// given configuration fingerprint writes to.
func RunSection(fingerprint string) string { return "run-" + fingerprint }

// CoverageSection names the checkpoint/journal section a coverage study with
// the given configuration fingerprint writes to.
func CoverageSection(fingerprint string) string { return "coverage-" + fingerprint }

// A Replayer deterministically re-executes the chunks of one campaign
// section. ReplayChunk returns the exact JSON payload bytes the original run
// handed to the checkpoint for that chunk — the bytes whose SHA-256 digest
// the journal recorded — so journal verification is a byte-level contract,
// not a semantic comparison. Implementations are safe for concurrent
// ReplayChunk calls.
type Replayer interface {
	// Section is the checkpoint/journal section name this replayer covers.
	Section() string
	// Fingerprint is the configuration fingerprint (the section's expected
	// fingerprint in the log's chunk records).
	Fingerprint() string
	// NumChunks is the total chunk count of an uninterrupted campaign.
	NumChunks() int
	// ReplayChunk recomputes chunk ci from the run's RNG fork coordinates
	// and returns its canonical payload bytes plus the trial range
	// [trialLo, trialHi) the chunk covers.
	ReplayChunk(ci int) (payload []byte, trialLo, trialHi int, err error)
}

// replayer replays one section's chunks through the same chunk kernel and
// the same harness.Chunking the live run used, so both the payload bytes
// and the trial spans match the journal by construction.
type replayer struct {
	section, fp string
	chunks      harness.Chunking
	replay      func(lo, hi int) ([]byte, error)
}

// newReplayer pools per-caller kernel instances (each owns unsynchronised
// scratch) behind a replayer. A kernel that failed is not pooled again: its
// trial panicked midway and may have left its scratch inconsistent.
func newReplayer[P any](section, fp string, chunks harness.Chunking, kernel func() func(lo, hi int) (P, error)) *replayer {
	var pool sync.Pool
	return &replayer{section: section, fp: fp, chunks: chunks, replay: func(lo, hi int) ([]byte, error) {
		k, _ := pool.Get().(func(lo, hi int) (P, error))
		if k == nil {
			k = kernel()
		}
		p, err := k(lo, hi)
		if err != nil {
			return nil, err
		}
		pool.Put(k)
		return json.Marshal(p)
	}}
}

func (r *replayer) Section() string     { return r.section }
func (r *replayer) Fingerprint() string { return r.fp }
func (r *replayer) NumChunks() int      { return r.chunks.Count() }

func (r *replayer) ReplayChunk(ci int) ([]byte, int, int, error) {
	if ci < 0 || ci >= r.chunks.Count() {
		return nil, 0, 0, fmt.Errorf("relsim: chunk %d outside [0, %d)", ci, r.chunks.Count())
	}
	lo, hi := r.chunks.Span(ci)
	raw, err := r.replay(lo, hi)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("relsim: replaying chunk %d: %w", ci, err)
	}
	return raw, lo, hi, nil
}

// NewRunReplayer builds a Replayer for the reliability run described by cfg.
// Execution attachments (Exec) are ignored; only the statistical
// configuration matters.
func NewRunReplayer(cfg Config) (Replayer, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	cfg.Exec = Exec{}
	cfg.trialHook = nil
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return nil, err
	}
	fp := cfg.Fingerprint()
	return newReplayer(RunSection(fp), fp, cfg.Chunking(), kernel), nil
}

// NewCoverageReplayer builds a Replayer for the coverage study described by
// cfg. Execution attachments (Exec) are ignored.
func NewCoverageReplayer(cfg CoverageConfig) (Replayer, error) {
	cfg.Exec = Exec{}
	cfg.trialHook = nil
	cfg.planHists = nil // replay must not pollute live campaign histograms
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return nil, err
	}
	fp := cfg.Fingerprint()
	return newReplayer(CoverageSection(fp), fp, cfg.Chunking(), kernel), nil
}
