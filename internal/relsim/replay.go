package relsim

import (
	"encoding/json"

	"relaxfault/internal/harness"
)

// A Replayer re-executes the chunks of one campaign section: each kernel
// Kernel returns computes trials [lo, hi) through the chunk kernel the live
// run used and returns the exact JSON payload bytes the run handed to the
// checkpoint — the bytes whose SHA-256 digest the journal recorded — so
// journal verification is a byte-level contract, not a semantic comparison.
// A kernel keeps unsynchronised scratch, so each caller keeps its own (as
// harness.Chunked keeps one per worker) and drops one whose call failed:
// its trial panicked midway and may have left the scratch inconsistent.
type Replayer struct {
	Section harness.Section
	Kernel  func() func(lo, hi int) ([]byte, error)
}

// replayer wraps a chunk-kernel factory into a Replayer of sec.
func replayer[P any](sec harness.Section, kernel func() func(lo, hi int) (P, error)) Replayer {
	return Replayer{Section: sec, Kernel: func() func(lo, hi int) ([]byte, error) {
		k := kernel()
		return func(lo, hi int) ([]byte, error) {
			p, err := k(lo, hi)
			if err != nil {
				return nil, err
			}
			return json.Marshal(p)
		}
	}}
}

// NewRunReplayer builds a Replayer for the reliability run described by cfg.
// Execution attachments (Exec) are ignored; only the statistical
// configuration matters.
func NewRunReplayer(cfg Config) (Replayer, error) {
	cfg.Exec = harness.Exec{}
	cfg.trialHook = nil
	if err := cfg.Validate(); err != nil {
		return Replayer{}, err
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return Replayer{}, err
	}
	return replayer(cfg.Section(), kernel), nil
}

// NewCoverageReplayer builds a Replayer for the coverage study described by
// cfg. Execution attachments (Exec) are ignored.
func NewCoverageReplayer(cfg CoverageConfig) (Replayer, error) {
	cfg.Exec = harness.Exec{}
	cfg.trialHook = nil
	cfg.planHists = nil // replay must not pollute live campaign histograms
	if err := cfg.Validate(); err != nil {
		return Replayer{}, err
	}
	kernel, err := cfg.kernel()
	if err != nil {
		return Replayer{}, err
	}
	return replayer(cfg.Section(), kernel), nil
}
