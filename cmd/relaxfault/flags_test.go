package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateFlags pins the cross-flag rules: every inconsistent
// combination fails fast at parse time with a message naming the flags
// involved, and every legal combination passes.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		r       flagRules
		wantErr string // empty = must pass
	}{
		{"bare run", flagRules{}, ""},
		{"store only", flagRules{Store: "s"}, ""},
		{"sweep with sets", flagRules{Sub: "sweep", Sets: 2}, ""},
		{"verify", flagRules{Sub: "verify", Journal: "j"}, ""},
		{"cache", flagRules{Sub: "cache", Store: "s"}, ""},

		{"journal on a run", flagRules{Journal: "j"}, "a run keeps its campaign logs in -store"},
		{"journal on a sweep", flagRules{Sub: "sweep", Journal: "j"}, "-journal names the verify subcommand's input"},
		{"sets without sweep", flagRules{Sets: 1}, "-set is only meaningful"},
		{"verify+store", flagRules{Sub: "verify", Journal: "j", Store: "s"}, "verify replays a journal only"},
		{"cache without store", flagRules{Sub: "cache"}, "cache requires -store"},
		{"sets on list", flagRules{Sub: "list", Sets: 1}, "-set is only meaningful"},
		{"sets on cache", flagRules{Sub: "cache", Store: "s", Sets: 1}, "-set is only meaningful"},
		{"sets on verify", flagRules{Sub: "verify", Journal: "j", Sets: 1}, "-set is only meaningful"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.r)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: validateFlags = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: validateFlags = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestUnknownExperimentRejectedBeforeArtifacts pins that experiment names
// resolve before anything is opened: a typoed name is a usage error (exit
// 2) that leaves no campaign store or manifest behind. So are -resume and
// -checkpoint, which are not flags: a run persists only through -store,
// and continues a killed run's store entry by itself.
func TestUnknownExperimentRejectedBeforeArtifacts(t *testing.T) {
	for _, tc := range []struct{ arg, file, wantErr string }{
		{"fig99", "", `unknown experiment "fig99"`},
		{"-resume", "", "flag provided but not defined: -resume"},
		{"-checkpoint", "x.jsonl", "flag provided but not defined: -checkpoint"},
	} {
		dir := t.TempDir()
		args := []string{"-progress", "0", "-metrics", filepath.Join(dir, "m.json"),
			"-store", filepath.Join(dir, "store"), tc.arg}
		if tc.file != "" {
			args = append(args, filepath.Join(dir, tc.file))
		}
		_, stderr, code := runBin(t, append(args, "tab1")...)
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2\n%s", tc.arg, code, stderr)
		}
		if !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("%s: stderr does not name the rejected argument:\n%s", tc.arg, stderr)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s: artifact %s left behind by a rejected invocation", tc.arg, e.Name())
		}
	}
}

// TestPresetListStatistics pins the list subcommand's statistics column:
// blank for the kinds that cannot take a statistics block (static,
// coverage, perf), the estimator for a reliability preset.
func TestPresetListStatistics(t *testing.T) {
	got := map[string]string{}
	for _, r := range presetRows() {
		got[r.name] = r.statistics
	}
	for _, name := range []string{"tab1", "fig8", "fig15"} {
		if s, ok := got[name]; !ok || s != "" {
			t.Errorf("%s: statistics %q (listed %v), want blank", name, s, ok)
		}
	}
	if s := got["fig12"]; s != "naive" {
		t.Errorf("fig12: statistics %q, want naive", s)
	}
	if s := got["rare-due"]; !strings.HasPrefix(s, "importance") {
		t.Errorf("rare-due: statistics %q, want the importance estimator", s)
	}
}
