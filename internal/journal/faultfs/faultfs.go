// Package faultfs is a test-only fault-injecting file wrapper for the
// journal and checkpoint durability tests. It models the three ways a
// power-loss or kill can mangle an append-only write stream:
//
//   - short write: the write system call persists only a prefix and
//     reports how little it wrote (io.ErrShortWrite territory);
//   - torn write: a prefix of the write reaches the disk but the process
//     dies before learning anything — the caller never observes an error,
//     the bytes are simply cut mid-record;
//   - crash-point (kill after N bytes): every byte up to the trigger
//     offset persists, everything after is lost, and all later writes and
//     syncs fail with ErrCrashed.
//
// Tests write a journal through a faultfs.File, trip the fault, then run
// recovery over the surviving bytes and assert the valid prefix is exactly
// the records that were fully durable before the fault.
package faultfs

import (
	"errors"
	"io"
	"sync"
)

// ErrCrashed is returned by every operation after a crash-point fires.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Mode selects what happens to the write that crosses the trigger offset.
type Mode int

const (
	// Crash persists the bytes up to the trigger offset, fails the write
	// that crosses it, and kills the file: all later writes/syncs fail.
	Crash Mode = iota
	// Short persists the bytes up to the trigger offset and reports a
	// short write; the file stays usable (the kernel really does this).
	Short
	// Torn persists the bytes up to the trigger offset but reports the
	// full write as successful, then kills the file — the caller believes
	// the record landed, the disk holds half of it.
	Torn
)

// File wraps an underlying sink and injects one fault once the cumulative
// byte count crosses the configured trigger. Safe for concurrent use.
type File struct {
	mu    sync.Mutex
	under interface {
		io.Writer
		Sync() error
		Close() error
	}
	trigger int64 // fault fires on the write crossing this offset (<0: never)
	mode    Mode
	written int64
	dead    bool
}

// New wraps under with a fault armed at byte offset trigger. A negative
// trigger never fires (a transparent wrapper).
func New(under interface {
	io.Writer
	Sync() error
	Close() error
}, trigger int64, mode Mode) *File {
	return &File{under: under, trigger: trigger, mode: mode}
}

func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, ErrCrashed
	}
	if f.trigger < 0 || f.written+int64(len(p)) <= f.trigger {
		n, err := f.under.Write(p)
		f.written += int64(n)
		return n, err
	}
	// This write crosses the trigger: persist only the prefix up to it.
	keep := f.trigger - f.written
	if keep < 0 {
		keep = 0
	}
	n, err := f.under.Write(p[:keep])
	f.written += int64(n)
	if err != nil {
		return n, err
	}
	switch f.mode {
	case Short:
		// One short write, then the file keeps working; disarm.
		f.trigger = -1
		return n, io.ErrShortWrite
	case Torn:
		f.dead = true
		return len(p), nil // the lie: full success, half the bytes
	default: // Crash
		f.dead = true
		return n, ErrCrashed
	}
}

func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrCrashed
	}
	return f.under.Sync()
}

func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.under.Close()
}
