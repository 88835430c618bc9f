package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/obs"
	"relaxfault/internal/relsim"
)

// vm is the journal-verification telemetry (journal.verify.* namespace, see
// OBSERVABILITY.md).
var vm = struct {
	chunks     *obs.Counter
	verified   *obs.Counter
	mismatched *obs.Counter
	unknown    *obs.Counter
}{
	chunks:     obs.Default().Counter("journal.verify.chunks"),
	verified:   obs.Default().Counter("journal.verify.verified"),
	mismatched: obs.Default().Counter("journal.verify.mismatched"),
	unknown:    obs.Default().Counter("journal.verify.unknown"),
}

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
	// Campaigns is the number of scenario specs decoded from the journal's
	// open record; Sections how many distinct journaled sections a replayer
	// was built for.
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

// replayers compiles the journal's embedded campaigns into one Replayer per
// simulation section. The embedded spec is integrity-checked against the
// fingerprint recorded beside it before anything is executed.
func replayers(j *journal.Journal) (map[string]relsim.Replayer, int, error) {
	bysec := make(map[string]relsim.Replayer)
	n := 0
	for _, c := range j.Open.Campaigns {
		n++
		sc, err := Decode(c.Spec)
		if err != nil {
			return nil, n, fmt.Errorf("campaign %s: embedded spec: %w", c.Name, err)
		}
		fp, err := sc.Fingerprint()
		if err != nil {
			return nil, n, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		if c.Fingerprint != "" && fp != c.Fingerprint {
			return nil, n, fmt.Errorf("campaign %s: embedded spec fingerprints to %s but the journal recorded %s (spec or journal tampered)",
				c.Name, fp, c.Fingerprint)
		}
		low, err := sc.Lower()
		if err != nil {
			return nil, n, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		for i := range low.Reliability {
			rep, err := relsim.NewRunReplayer(low.Reliability[i])
			if err != nil {
				return nil, n, fmt.Errorf("campaign %s: cell %d: %w", c.Name, i, err)
			}
			bysec[rep.Section()] = rep
		}
		for i := range low.Coverage {
			rep, err := relsim.NewCoverageReplayer(low.Coverage[i])
			if err != nil {
				return nil, n, fmt.Errorf("campaign %s: study %d: %w", c.Name, i, err)
			}
			bysec[rep.Section()] = rep
		}
	}
	return bysec, n, nil
}

// VerifyJournal deterministically re-executes every chunk the journal
// acknowledges and checks the results against the recorded digests, and
// for v2 logs each logged payload against its digest as well, so a log
// that verifies is exactly a log that resumes. The journal is
// self-contained: its open record embeds the canonical scenario
// specs, so verification needs no checkpoint, preset registry, or original
// command line — only the journal file and this binary.
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
	vm.chunks.Add(int64(len(keys)))
	// v2 logs carry each chunk's payload, which must hash to the digest
	// too: that is the check a resume makes before trusting the payload.
	payloads := j.Open.Schema == journal.Schema

	// verdicts[i]: "" = verified, otherwise the mismatch reason; unknown
	// sections are resolved before the fan-out.
	verdicts := make([]string, len(keys))
	var todo []int
	var mu sync.Mutex
	for i, k := range keys {
		if _, ok := bysec[k.Section]; ok {
			todo = append(todo, i)
			continue
		}
		rep.Unknown = append(rep.Unknown, k)
		vm.unknown.Inc()
	}
	eng := harness.Engine{Workers: ex.Workers, Mon: ex.Mon, Trace: ex.Trace}
	eng.Run(ctx, len(todo), func(_, t int) (int64, bool) {
		i := todo[t]
		k := keys[i]
		rec := latest[k]
		r := bysec[k.Section]
		var reason string
		switch {
		case rec.SectionFP != r.Fingerprint():
			reason = fmt.Sprintf("journal section fingerprint %s, campaign lowers to %s", rec.SectionFP, r.Fingerprint())
		case rec.Chunk >= r.NumChunks():
			reason = fmt.Sprintf("chunk index beyond campaign's %d chunks", r.NumChunks())
		default:
			raw, lo, hi, err := r.ReplayChunk(rec.Chunk)
			got := journal.Digest(raw)
			switch {
			case err != nil:
				reason = fmt.Sprintf("replay failed: %v", err)
			case lo != rec.TrialLo || hi != rec.TrialHi:
				reason = fmt.Sprintf("trial range: journal [%d,%d), replay [%d,%d)", rec.TrialLo, rec.TrialHi, lo, hi)
			case got != rec.Digest:
				reason = fmt.Sprintf("digest mismatch: journal %s, replay %s", rec.Digest, got)
			case payloads && journal.Digest(rec.Payload) != rec.Digest:
				reason = fmt.Sprintf("payload digest mismatch: journal %s, logged payload %s", rec.Digest, journal.Digest(rec.Payload))
			}
		}
		mu.Lock()
		verdicts[i] = reason
		mu.Unlock()
		return 1, true
	})
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for _, i := range todo {
		if verdicts[i] == "" {
			rep.Verified++
			vm.verified.Inc()
			continue
		}
		rep.Mismatched = append(rep.Mismatched, Mismatch{Key: keys[i], Reason: verdicts[i]})
		vm.mismatched.Inc()
	}
	return rep, nil
}
