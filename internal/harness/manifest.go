package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"relaxfault/internal/journal"
	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
)

// ManifestSchema versions the manifest JSON layout; consumers should reject
// schemas they do not understand rather than guess. Schema 2 added the
// journal audit fields (journal path, sealed state, chunk-record and
// verified-chunk counts); schema 3 added the scheduler-attribution trace
// block; schema 4 added the campaigns block (campaign key, store
// coordinates, and cache-hit/resume provenance of keyed -store runs);
// schema 5 dropped the skipped-trial count and records, because a
// panicking trial fails its run instead of being skipped; schema 6 dropped
// the checkpoint path, which always named the same file as the journal
// path, because a run persists only through its store entries. The schema-2
// journal fields are gone too: only a store entry's own manifest set them,
// and an entry now keeps no manifest (its entry.json and log hold every
// fact), so no run manifest changed shape.
const ManifestSchema = 6

// Manifest is the machine-readable record of one CLI run: enough to
// reproduce it (command, seed, fingerprint, version), audit it (wall/CPU
// time, failures), and analyse it (the full metrics snapshot). The CLI
// writes it to the -metrics target.
type Manifest struct {
	Schema    int    `json:"schema"`
	Version   string `json:"version"`    // VCS revision of the binary, or "unknown"
	GoVersion string `json:"go_version"` //
	OS        string `json:"os"`
	Arch      string `json:"arch"`

	Command     []string `json:"command"`     // os.Args as invoked
	Experiments []string `json:"experiments"` // experiment names run
	Scale       string   `json:"scale,omitempty"`
	Seed        uint64   `json:"seed"`
	Fingerprint string   `json:"fingerprint,omitempty"` // config fingerprint(s), joined
	// Scenarios embeds every fully-resolved scenario the run executed (an
	// interrupted run: began), once each, in the record a campaign log
	// embeds, so a manifest alone reproduces the run without the preset
	// registry or the original -scenario file. The static tables run no
	// scenario and have none.
	Scenarios []journal.Campaign `json:"scenarios,omitempty"`
	// Campaigns (schema 4) records every keyed campaign a -store run
	// resolved: the budget-free campaign key, the store entry served or
	// written, and whether the result was computed, resumed from a cached
	// checkpoint, or a pure cache hit.
	Campaigns []CampaignRecord `json:"campaigns,omitempty"`
	// Trace (schema 3) is the scheduler-attribution report of a traced run:
	// per-worker busy/claim/fsync/reduce-wait/idle percentages, straggler
	// chunks, and the critical-path estimate. Present only under -trace.
	Trace *runtrace.Report `json:"trace,omitempty"`

	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wall_seconds"`
	// CPUSeconds is the user+system CPU time the process spent between
	// NewManifest and Finish (0 where unsupported).
	CPUSeconds float64 `json:"cpu_seconds"`
	cpu0       float64 // process CPU seconds at NewManifest

	TrialsDone int64 `json:"trials_done"`

	ExitCode int      `json:"exit_code"`
	Failures []string `json:"failures,omitempty"`

	Metrics map[string]obs.MetricSnapshot `json:"metrics"`
}

// Campaign provenance values for CampaignRecord.Source.
const (
	// CampaignComputed: the campaign ran its trials (fresh entry).
	CampaignComputed = "computed"
	// CampaignResumed: the campaign resumed from a cached (or crashed) log
	// and computed only the missing chunks.
	CampaignResumed = "resumed"
	// CampaignCacheHit: a completed store entry served the request once
	// every logged payload matched its digest; zero trials executed.
	CampaignCacheHit = "cache-hit"
)

// CampaignRecord is one keyed campaign of a -store run: the campaign key
// (the scenario fingerprint with its elastic trial-budget axes cleared),
// the store coordinates of the entry that served or recorded the result,
// and the reuse provenance.
type CampaignRecord struct {
	Key  string `json:"key"`
	Seed uint64 `json:"seed"`
	// Scenario and Fingerprint name the exact scenario (budget included).
	Scenario    string `json:"scenario"`
	Fingerprint string `json:"fingerprint"`
	StoreRoot   string `json:"store_root"`
	// Entry is the entry directory relative to the store root.
	Entry string `json:"entry"`
	// Trials is the elastic budget the request resolved at.
	Trials int `json:"trials"`
	// Source is computed, resumed, or cache-hit.
	Source string `json:"source"`
	// ReusedChunks counts chunks seeded verbatim from another entry;
	// VerifiedChunks counts logged payloads that matched their digests.
	ReusedChunks   int `json:"reused_chunks,omitempty"`
	VerifiedChunks int `json:"verified_chunks,omitempty"`
}

// NewManifest starts a manifest for the current process: schema, build
// version, platform, and command line are filled in, and the wall and CPU
// clocks start; the caller sets the run-specific fields and calls Finish
// before writing.
func NewManifest() *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Version:   buildVersion(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Command:   append([]string(nil), os.Args...),
		Start:     time.Now().UTC(),
		cpu0:      processCPUSeconds(),
	}
}

// Finish stamps the end time, the wall and CPU time since NewManifest, and
// the metrics snapshot from the default registry.
func (m *Manifest) Finish() {
	m.End = time.Now().UTC()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	m.CPUSeconds = processCPUSeconds() - m.cpu0
	m.Metrics = obs.Default().Snapshot()
}

// WriteFile writes the manifest atomically (journal.WriteFileAtomic):
// readers see the old manifest or the new one, never a torn file.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encode manifest: %w", err)
	}
	if err := journal.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("harness: write manifest: %w", err)
	}
	return nil
}

// BuildVersion returns the VCS revision stamped into the binary (12-hex
// prefix, "+dirty" when the tree was modified); bench artifacts reuse it so
// perf numbers are attributable to a commit.
func BuildVersion() string { return buildVersion() }

// buildVersion extracts the VCS revision stamped into the binary (12-hex
// prefix, "+dirty" when the tree was modified). `go run` and test binaries
// usually carry no stamp; those report "unknown".
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
