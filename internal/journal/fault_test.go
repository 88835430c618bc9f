package journal

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"relaxfault/internal/journal/faultfs"
)

// appendUntilFault appends chunk records through a fault-injecting file
// until an Append fails, returning how many records (including the open
// record) were durably acknowledged.
func appendUntilFault(t *testing.T, path string, trigger int64, mode faultfs.Mode) (acked int, appendErr error) {
	t.Helper()
	under, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultfs.New(under, trigger, mode)
	w := NewWriter(ff)
	if err := w.Append(Record{Type: TypeOpen, Schema: Schema, Seed: 1}); err != nil {
		return 0, err
	}
	acked = 1
	for i := 0; i < 100; i++ {
		if err := w.AppendChunk("run-x", "x", i, i*10, (i+1)*10, json.RawMessage(strconv.Itoa(i))); err != nil {
			return acked, err
		}
		acked++
	}
	t.Fatalf("fault at offset %d never fired within 100 records", trigger)
	return acked, nil
}

func TestCrashPointKeepsAckedRecords(t *testing.T) {
	// Sweep the kill offset across record boundaries and interiors: for
	// every N, recovery must yield exactly the records that were
	// acknowledged (write+fsync completed) before the crash.
	for _, trigger := range []int64{1, 50, 137, 200, 333, 512, 777} {
		path := filepath.Join(t.TempDir(), "c.journal")
		acked, appendErr := appendUntilFault(t, path, trigger, faultfs.Crash)
		if appendErr == nil {
			t.Fatalf("trigger %d: crash never surfaced", trigger)
		}
		if !errors.Is(appendErr, faultfs.ErrCrashed) {
			t.Fatalf("trigger %d: unexpected error %v", trigger, appendErr)
		}
		if acked == 0 {
			// Not even the open record landed; nothing to recover.
			if _, err := Load(path); err == nil {
				t.Fatalf("trigger %d: empty journal loaded successfully", trigger)
			}
			continue
		}
		w, j, err := Resume(path)
		if err != nil {
			t.Fatalf("trigger %d: Resume: %v", trigger, err)
		}
		w.Close()
		if j.Records != acked {
			t.Fatalf("trigger %d: recovered %d records, %d were acknowledged", trigger, j.Records, acked)
		}
	}
}

func TestTornWriteDroppedOnRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	acked, appendErr := appendUntilFault(t, path, 260, faultfs.Torn)
	if appendErr == nil {
		t.Fatal("torn write never surfaced (fsync should have failed)")
	}
	// The torn record's Write claimed success, so its prefix is on disk;
	// the failed fsync means it was never acknowledged. Recovery must drop
	// the half-record and keep exactly the acked prefix.
	w, j, err := Resume(path)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	w.Close()
	if j.Records != acked {
		t.Fatalf("recovered %d records, %d were acknowledged", j.Records, acked)
	}
	if j.TornBytes == 0 {
		t.Fatal("torn write left no torn tail to report")
	}
}

func TestShortWriteLatchesWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	acked, appendErr := appendUntilFault(t, path, 260, faultfs.Short)
	if !errors.Is(appendErr, io.ErrShortWrite) {
		t.Fatalf("want io.ErrShortWrite, got %v", appendErr)
	}
	// A writer that saw any write error must refuse further appends: the
	// file position is unknown, appending would interleave garbage.
	under, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	w := NewWriter(faultfs.New(under, -1, faultfs.Crash))
	w.err = appendErr // simulate the latched writer continuing
	if err := w.AppendChunk("run-x", "x", 999, 0, 1, json.RawMessage("999")); err == nil {
		t.Fatal("latched writer accepted an append")
	}
	under.Close()
	w, j, err := Resume(path)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	w.Close()
	if j.Records != acked {
		t.Fatalf("recovered %d records, %d were acknowledged", j.Records, acked)
	}
}

func TestWriterLatchesAfterFirstError(t *testing.T) {
	under, err := os.OpenFile(filepath.Join(t.TempDir(), "c.journal"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultfs.New(under, 10, faultfs.Crash)
	w := NewWriter(ff)
	if err := w.Append(Record{Type: TypeOpen, Schema: Schema}); err == nil {
		t.Fatal("append across the crash point succeeded")
	}
	if w.Err() == nil {
		t.Fatal("error not latched")
	}
	if err := w.AppendChunk("s", "fp", 0, 0, 1, json.RawMessage("0")); err == nil {
		t.Fatal("append after latched error succeeded")
	}
}
