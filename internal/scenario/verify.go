package scenario

import (
	"context"
	"fmt"
	"sort"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/relsim"
)

// Mismatch is one journaled chunk whose replay disagrees with the record.
type Mismatch struct {
	Key    journal.ChunkKey
	Reason string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s chunk %d: %s", m.Key.Section, m.Key.Chunk, m.Reason)
}

// VerifyReport is the outcome of replaying a journal end to end.
type VerifyReport struct {
	// Campaigns is the number of distinct scenario specs decoded from the
	// journal's open and resume records; Sections how many distinct
	// journaled sections a replayer was built for.
	Campaigns int
	Sections  int
	// Chunks counts the chunk records replayed (the latest record per
	// (section, chunk) — a resumed campaign may journal a chunk twice).
	Chunks   int
	Verified int
	// Mismatched lists chunks whose deterministic replay produced a
	// different digest or trial range than the journal records, or whose
	// logged payload does not hash to its digest — the journal (or the code
	// that replays it) does not describe the computation that actually ran.
	Mismatched []Mismatch
	// Unknown lists chunk records belonging to no embedded campaign's
	// sections; they cannot be replayed from this journal alone.
	Unknown []journal.ChunkKey
	// Sealed is the journal's final seal status ("complete",
	// "interrupted"), or "" for an unsealed (torn or still-running)
	// journal.
	Sealed string
}

// OK reports whether every journaled chunk was replayed and matched.
func (r *VerifyReport) OK() bool {
	return len(r.Mismatched) == 0 && len(r.Unknown) == 0
}

// String renders the report as the one-paragraph summary the CLI prints.
func (r *VerifyReport) String() string {
	sealed := r.Sealed
	if sealed == "" {
		sealed = "unsealed"
	}
	return fmt.Sprintf("journal verify: %d campaign(s), %d section(s), %d chunk(s): %d verified, %d mismatched, %d unknown (%s)",
		r.Campaigns, r.Sections, r.Chunks, r.Verified, len(r.Mismatched), len(r.Unknown), sealed)
}

// replayers compiles the journal's embedded campaigns — those of its open
// record and of every resume record, each fingerprint once — into one
// Replayer per simulation section, keyed by section name. Every embedded
// spec is integrity-checked against the fingerprint recorded beside it
// before anything is executed. A campaign embedded by several records (a
// resumed log's open and resume records) is lowered once, and its
// replayers are built from the lowering that validates it.
func replayers(j *journal.Journal) (map[string]relsim.Replayer, int, error) {
	bysec := make(map[string]relsim.Replayer)
	seen := make(map[string]bool)
	for _, c := range j.Campaigns {
		sc, err := parse(c.Spec)
		if err != nil {
			return nil, 0, fmt.Errorf("campaign %s: embedded spec: %w", c.Name, err)
		}
		fp, err := sc.Fingerprint()
		if err != nil {
			return nil, 0, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		if c.Fingerprint != "" && fp != c.Fingerprint {
			return nil, 0, fmt.Errorf("campaign %s: embedded spec fingerprints to %s but the journal recorded %s (spec or journal tampered)",
				c.Name, fp, c.Fingerprint)
		}
		if seen[fp] {
			continue
		}
		seen[fp] = true
		low, err := sc.Lower()
		if err != nil {
			return nil, 0, fmt.Errorf("campaign %s: embedded spec: %w", c.Name, err)
		}
		for i := range low.Reliability {
			rep, err := relsim.NewRunReplayer(low.Reliability[i])
			if err != nil {
				return nil, 0, fmt.Errorf("campaign %s: cell %d: %w", c.Name, i, err)
			}
			bysec[rep.Section.Name] = rep
		}
		for i := range low.Coverage {
			rep, err := relsim.NewCoverageReplayer(low.Coverage[i])
			if err != nil {
				return nil, 0, fmt.Errorf("campaign %s: study %d: %w", c.Name, i, err)
			}
			bysec[rep.Section.Name] = rep
		}
	}
	return bysec, len(seen), nil
}

// VerifyJournal deterministically re-executes every chunk the journal
// acknowledges and checks the results against the recorded digests, and
// each logged payload against its digest as well, so a log that verifies
// is exactly a log that resumes. The journal is self-contained: its open
// and resume records embed the canonical scenario specs, so verification
// needs no checkpoint, preset registry, or original command line — only
// the journal file and this binary.
//
// Replay fans out on the shared worker engine; results are index-collected,
// so the report is identical for every worker count. A mismatch is a
// finding, not an error: errors are reserved for journals that cannot be
// verified at all (undecodable campaign spec, fingerprint tampering,
// unbuildable configuration).
func VerifyJournal(ctx context.Context, j *journal.Journal, ex Exec) (*VerifyReport, error) {
	if j == nil || j.Open == nil {
		return nil, fmt.Errorf("scenario: journal has no open record")
	}
	rep := &VerifyReport{}
	if j.SealedComplete() {
		rep.Sealed = journal.StatusComplete
	} else if j.Seal != nil {
		rep.Sealed = j.Seal.Status
	}
	bysec, n, err := replayers(j)
	rep.Campaigns = n
	if err != nil {
		return rep, fmt.Errorf("scenario: verify journal: %w", err)
	}
	rep.Sections = len(bysec)

	latest := j.LatestChunks()
	keys := make([]journal.ChunkKey, 0, len(latest))
	for k := range latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Section != keys[b].Section {
			return keys[a].Section < keys[b].Section
		}
		return keys[a].Chunk < keys[b].Chunk
	})
	rep.Chunks = len(keys)

	// verdicts[i]: "" = verified, otherwise the mismatch reason. A record
	// of an unknown section, of another fingerprint or of a chunk index
	// outside the section is settled here; todo holds the chunks to replay,
	// and the Monitor expects their trials.
	verdicts := make([]string, len(keys))
	var todo []int
	var expect int64
	for i, k := range keys {
		r, ok := bysec[k.Section]
		rec := latest[k]
		switch {
		case !ok:
			rep.Unknown = append(rep.Unknown, k)
		case rec.SectionFP != r.Section.Fingerprint:
			verdicts[i] = fmt.Sprintf("journal section fingerprint %s, campaign lowers to %s", rec.SectionFP, r.Section.Fingerprint)
		case rec.Chunk < 0 || rec.Chunk >= r.Section.Count():
			verdicts[i] = fmt.Sprintf("chunk index outside campaign's %d chunks", r.Section.Count())
		default:
			todo = append(todo, i)
			lo, hi := r.Section.Span(rec.Chunk)
			expect += int64(hi - lo)
		}
	}
	ex.Mon.Expect(expect)
	// Each worker keeps one kernel per section, as harness.Chunked keeps
	// one per worker, and drops a kernel whose replay failed. Each verdict
	// slot has one writer and is read after Run returns.
	kernels := make([]map[string]func(lo, hi int) ([]byte, error), harness.PoolWorkers(ex.Workers))
	eng := harness.Engine{Exec: ex}
	eng.Run(ctx, len(todo), func(w, t int) (int64, bool) {
		i := todo[t]
		rec := latest[keys[i]]
		r := bysec[rec.Section]
		if kernels[w] == nil {
			kernels[w] = make(map[string]func(lo, hi int) ([]byte, error))
		}
		kernel := kernels[w][rec.Section]
		if kernel == nil {
			kernel = r.Kernel()
			kernels[w][rec.Section] = kernel
		}
		lo, hi := r.Section.Span(rec.Chunk)
		raw, err := kernel(lo, hi)
		got := journal.Digest(raw)
		switch {
		case err != nil:
			delete(kernels[w], rec.Section)
			verdicts[i] = fmt.Sprintf("replay failed: %v", err)
		case lo != rec.TrialLo || hi != rec.TrialHi:
			verdicts[i] = fmt.Sprintf("trial range: journal [%d,%d), replay [%d,%d)", rec.TrialLo, rec.TrialHi, lo, hi)
		case got != rec.Digest:
			verdicts[i] = fmt.Sprintf("digest mismatch: journal %s, replay %s", rec.Digest, got)
		// The logged payload must hash to the digest too: that is the
		// check a resume makes before trusting the payload.
		case journal.Digest(rec.Payload) != rec.Digest:
			verdicts[i] = fmt.Sprintf("payload digest mismatch: journal %s, logged payload %s", rec.Digest, journal.Digest(rec.Payload))
		}
		return int64(hi - lo), true
	})
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for i, k := range keys {
		if _, ok := bysec[k.Section]; !ok {
			continue
		}
		if verdicts[i] == "" {
			rep.Verified++
		} else {
			rep.Mismatched = append(rep.Mismatched, Mismatch{Key: k, Reason: verdicts[i]})
		}
	}
	return rep, nil
}
