package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Journal is the decoded contents of one journal file: the structural
// records pulled apart, plus recovery bookkeeping when the file ended in a
// torn tail.
type Journal struct {
	Path string
	// Open is the first record (always TypeOpen in a valid journal).
	Open *Record
	// Campaigns are the campaigns embedded in the open record and in every
	// resume record, in log order: a rerun may resume the log under a
	// different scenario, and its chunks replay from the spec its resume
	// record embeds.
	Campaigns []Campaign
	// Chunks are the chunk records in append order. A chunk index may
	// appear more than once (recomputed after its payload failed to
	// decode); LatestChunks resolves duplicates.
	Chunks []Record
	// Seal is the last seal record, nil while the campaign is live.
	Seal *Record
	// Records counts every valid record, LastSeq the last valid sequence
	// number, ChunkRecords the chunk records among them.
	Records      int
	LastSeq      uint64
	ChunkRecords uint64
	// TornBytes is how many trailing bytes fell outside the valid prefix
	// (0 for a cleanly written journal); TornReason says why the first
	// invalid byte was rejected.
	TornBytes  int64
	TornReason string
}

// SealedComplete reports whether the journal ends in a "complete" seal.
func (j *Journal) SealedComplete() bool {
	return j.Seal != nil && j.Seal.Status == StatusComplete
}

// ChunkKey names one journaled chunk: the checkpoint section plus the chunk
// index within it.
type ChunkKey struct {
	Section string
	Chunk   int
}

// LatestChunks resolves duplicate chunk records to the latest occurrence,
// which is the record whose payload a resumed campaign adopts.
func (j *Journal) LatestChunks() map[ChunkKey]Record {
	out := make(map[ChunkKey]Record, len(j.Chunks))
	for _, rec := range j.Chunks {
		out[ChunkKey{rec.Section, rec.Chunk}] = rec
	}
	return out
}

// Load reads and validates the journal at path without modifying it. A
// torn tail is not an error: the valid prefix is returned and TornBytes /
// TornReason report what was dropped. An empty or unreadable file, or one
// that does not start with a valid open record, is an error.
func Load(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	j, validLen, reason := parse(data)
	j.Path = path
	j.TornBytes = int64(len(data)) - validLen
	j.TornReason = reason
	if j.Open == nil {
		if reason == "" {
			reason = "empty journal"
		}
		return nil, fmt.Errorf("journal: %s: no valid open record: %s", path, reason)
	}
	return j, nil
}

// truncate cuts the file at j.Path back to its valid prefix (fsync'd) when
// the load found a torn tail.
func (j *Journal) truncate() error {
	if j.TornBytes == 0 {
		return nil
	}
	info, err := os.Stat(j.Path)
	if err != nil {
		return fmt.Errorf("journal: recover %s: %w", j.Path, err)
	}
	if err := os.Truncate(j.Path, info.Size()-j.TornBytes); err != nil {
		return fmt.Errorf("journal: recover %s: %w", j.Path, err)
	}
	if f, err := os.OpenFile(j.Path, os.O_WRONLY, 0); err == nil {
		f.Sync()
		f.Close()
	}
	jm.recoveries.Inc()
	jm.tornBytes.Add(j.TornBytes)
	return nil
}

// parse scans data line by line, accumulating records until the first
// invalid byte. It returns the decoded prefix, its length in bytes, and
// the reason scanning stopped ("" when the whole input was valid).
func parse(data []byte) (*Journal, int64, string) {
	j := &Journal{}
	var off int64
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return j, off, "truncated line (no trailing newline)"
		}
		line := rest[:nl]
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return j, off, fmt.Sprintf("undecodable envelope: %v", err)
		}
		if got := lineSum(env.Rec); got != env.Sum {
			return j, off, fmt.Sprintf("line sum mismatch: have %s, recomputed %s", env.Sum, got)
		}
		var rec Record
		if err := json.Unmarshal(env.Rec, &rec); err != nil {
			return j, off, fmt.Sprintf("undecodable record: %v", err)
		}
		if rec.Seq != j.LastSeq+1 {
			return j, off, fmt.Sprintf("sequence gap: have seq %d after %d", rec.Seq, j.LastSeq)
		}
		if j.Records == 0 {
			if rec.Type != TypeOpen {
				return j, off, fmt.Sprintf("first record is %q, want %q", rec.Type, TypeOpen)
			}
			if rec.Schema != Schema {
				return j, off, fmt.Sprintf("schema %q, want %q", rec.Schema, Schema)
			}
		} else if rec.Type == TypeOpen {
			return j, off, "second open record"
		}
		if j.SealedComplete() {
			return j, off, "record after a complete seal"
		}
		switch rec.Type {
		case TypeOpen:
			r := rec
			j.Open = &r
			j.Campaigns = append(j.Campaigns, rec.Campaigns...)
		case TypeChunk:
			if rec.Chunk < 0 {
				return j, off, fmt.Sprintf("chunk record with negative index %d", rec.Chunk)
			}
			j.Chunks = append(j.Chunks, rec)
			j.ChunkRecords++
			j.Seal = nil
		case TypeSeal:
			r := rec
			j.Seal = &r
		case TypeResume:
			j.Seal = nil
			j.Campaigns = append(j.Campaigns, rec.Campaigns...)
		default:
			return j, off, fmt.Sprintf("unknown record type %q", rec.Type)
		}
		j.Records++
		j.LastSeq = rec.Seq
		off += int64(nl) + 1
		rest = rest[nl+1:]
	}
	return j, off, ""
}
