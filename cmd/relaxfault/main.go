// Command relaxfault regenerates the tables and figures of "RelaxFault
// Memory Repair" (Kim & Erez, ISCA 2016) from this repository's simulators.
//
// Usage:
//
//	relaxfault [-scale quick|paper] [-seed N] [-parallel N] [-timeout D]
//	           [-progress D] [-checkpoint FILE [-resume] [-journal FILE]]
//	           [-metrics FILE|-] [-events FILE] [-pprof ADDR] [-trace FILE]
//	           <experiment> [...]
//	relaxfault -scenario FILE|PRESET [-store DIR]
//	relaxfault sweep -scenario FILE|PRESET -set path=v1,v2 [-set ...]
//	relaxfault verify -journal FILE
//	relaxfault cache [list|show KEY|evict KEY] -store DIR
//	relaxfault list
//
// Experiments: tab1 tab2 tab3 tab4 fig2 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 all
//
// Every experiment is a preset scenario in internal/scenario's registry;
// "list" prints them. -scenario runs any scenario — a preset name or a JSON
// spec file — through the generic runner, and "sweep" runs the cross-product
// of -set overrides over a base scenario, writing one manifest per point.
//
// Monte Carlo campaigns run on a sharded worker pool (-parallel N, default
// all cores). Trials are claimed as fixed-size chunk indexes and every node
// derives its RNG stream from the root seed alone, so the output is bitwise
// identical for any worker count — the "bench" experiment measures the
// speedup and asserts that identity.
//
// The run harness makes long campaigns survivable: ^C or SIGTERM cancels
// gracefully at the next work-chunk boundary (a second signal force-quits),
// -timeout bounds each experiment, -checkpoint/-resume restart a killed run
// from its last snapshot with bitwise-identical output, and a requested
// experiment that fails no longer aborts the rest — failures are collected
// and summarised.
//
// -journal FILE keeps an append-only, fsync'd replay journal beside the
// checkpoint: one digest-bearing record per completed chunk, durably written
// before the chunk may enter a snapshot. On -resume the snapshot is
// cross-checked against the journal and a mismatch refuses the resume
// (-repair-journal quarantines the bad chunks for recomputation instead).
// "relaxfault verify -journal FILE" later re-executes every journaled chunk
// from the campaign specs embedded in the journal itself and compares
// digests — no checkpoint or original command line needed.
//
// -store DIR replaces the explicit -checkpoint/-journal plumbing with a
// content-addressed campaign store: every scenario run is keyed by its
// budget-free campaign fingerprint and seed, repeated runs are verified
// cache hits (zero trials execute), and a bumped trial budget resumes from
// the largest cached entry instead of starting over. "relaxfault cache"
// lists, inspects, and evicts store entries.
//
// Telemetry (see OBSERVABILITY.md): -metrics writes a run manifest with the
// full metrics snapshot, -events streams JSONL progress/skip/run events, and
// -pprof serves net/http/pprof, expvar, Prometheus text metrics, and a live
// GET /debug/status JSON snapshot (per-worker current chunk, trials/s, ETA,
// journal health) while the run is live. -trace FILE records execution spans
// (chunk/claim/checkpoint/reduce-wait per worker, fsync stalls, sections)
// and writes a Chrome trace_event JSON loadable in Perfetto, embeds the
// scheduler-attribution report as the manifest's "trace" block, and prints
// it as a table. Flags may appear before or after experiment names.
//
// Exit codes: 0 success; 1 at least one experiment failed; 2 usage error;
// 3 all experiments completed but some Monte Carlo trials were skipped
// after panics (partial success — see the skip report on stderr), or a
// journal verification found mismatched or unverifiable chunks;
// 130 interrupted (SIGINT); 143 terminated (SIGTERM).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"relaxfault/internal/campaign"
	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/experiments"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/obs"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

func main() {
	os.Exit(run())
}

// allExperiments is the expansion of the "all" pseudo-experiment, in paper
// order.
var allExperiments = []string{"tab1", "tab2", "tab3", "tab4", "fig2", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}

func run() int {
	scaleFlag := flag.String("scale", "quick", "effort level: quick or paper")
	seed := flag.Uint64("seed", 7, "Monte Carlo seed")
	timeout := flag.Duration("timeout", 0, "per-experiment deadline (0 = none)")
	progress := flag.Duration("progress", 10*time.Second, "progress report interval on stderr (0 = silent)")
	checkpoint := flag.String("checkpoint", "", "checkpoint snapshot file for the Monte Carlo runs")
	resume := flag.Bool("resume", false, "resume from the -checkpoint snapshot instead of starting fresh")
	journalFlag := flag.String("journal", "", "append-only replay journal beside the -checkpoint (also the verify subcommand's input)")
	repairJournal := flag.Bool("repair-journal", false, "on -resume, quarantine snapshot chunks that fail the journal cross-check (recompute) instead of refusing")
	flushInterval := flag.Duration("flush-interval", harness.DefaultFlushInterval, "checkpoint snapshot rate limit (lower it so short campaigns persist chunks quickly)")
	metricsOut := flag.String("metrics", "", `write the run manifest (config, timings, metrics snapshot) to FILE; "-" prints JSON to stdout`)
	eventsOut := flag.String("events", "", "append machine-readable JSONL progress/skip/run events to FILE")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar, Prometheus text metrics, and /debug/status on ADDR (e.g. localhost:6060)")
	traceFlag := flag.String("trace", "", "record execution spans and write a Perfetto-loadable Chrome trace_event JSON to FILE (also embeds the scheduler-attribution report in the manifest)")
	parallel := flag.Int("parallel", 0, "Monte Carlo worker pool size (0 = all cores); results are identical for any value")
	scenarioFlag := flag.String("scenario", "", "run a scenario: a preset name or a JSON spec file (see the list subcommand)")
	storeFlag := flag.String("store", "", "content-addressed campaign store DIR: repeated runs are verified cache hits, budget bumps resume from cached checkpoints (conflicts with -checkpoint/-journal/-resume)")
	var setFlagsRaw repeatedFlag
	flag.Var(&setFlagsRaw, "set", "sweep axis as path=v1[,v2...]; repeatable, used with the sweep subcommand")
	flag.Usage = usage
	args := parseArgs()
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	// Subcommand detection feeds the centralized flag validation: every
	// cross-flag rule is checked here, at parse time, before any artifact is
	// touched.
	sub := ""
	if len(args) > 0 {
		switch args[0] {
		case "verify", "cache", "sweep":
			sub = args[0]
		case "list":
			if len(args) == 1 {
				sub = "list"
			}
		}
	}
	if err := validateFlags(flagRules{
		Sub:        sub,
		Checkpoint: *checkpoint, Journal: *journalFlag, Store: *storeFlag,
		Resume: *resume, RepairJournal: *repairJournal,
		Sets: len(setFlagsRaw),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 2
	}
	switch sub {
	case "list":
		printPresetList()
		return 0
	case "verify":
		return runVerify(args[1:], *journalFlag, *parallel, *progress)
	case "cache":
		return runCache(args[1:], *storeFlag)
	}
	if len(args) == 0 && *scenarioFlag == "" {
		usage()
		return 2
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleFlag)
		return 2
	}
	scale.Seed = *seed
	scale.Workers = *parallel

	// Mode selection: the classic experiment list, one -scenario, or a sweep.
	const (
		modeExperiments = iota
		modeScenario
		modeSweep
	)
	mode := modeExperiments
	if len(args) > 0 && args[0] == "sweep" {
		mode = modeSweep
		args = args[1:]
	} else if *scenarioFlag != "" {
		mode = modeScenario
	}
	var baseScenario *scenario.Scenario
	var sweepPoints []*scenario.Scenario
	switch mode {
	case modeScenario, modeSweep:
		if len(args) > 0 {
			fmt.Fprintf(os.Stderr, "relaxfault: -scenario and sweep take no experiment names (got %q)\n", args)
			return 2
		}
		if *scenarioFlag == "" {
			fmt.Fprintf(os.Stderr, "relaxfault: sweep requires -scenario FILE|PRESET\n")
			return 2
		}
		var err error
		baseScenario, err = loadScenarioArg(*scenarioFlag, scale, seedSet, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 2
		}
		if mode == modeSweep {
			var axes []scenario.SweepSet
			for _, raw := range setFlagsRaw {
				ax, err := scenario.ParseSet(raw)
				if err != nil {
					fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
					return 2
				}
				axes = append(axes, ax)
			}
			sweepPoints, err = scenario.Expand(baseScenario, axes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "relaxfault: sweep expands to %d points\n", len(sweepPoints))
		}
	}
	if mode == modeExperiments && len(args) == 1 && args[0] == "all" {
		args = allExperiments
	}

	// Resolve every scenario the run will execute up front: the records are
	// embedded both in the run manifest and — when a journal is kept — in
	// the journal's open record, which is what makes "relaxfault verify"
	// self-contained.
	var records []harness.ScenarioRecord
	sweepRecs := make([]*harness.ScenarioRecord, len(sweepPoints))
	switch mode {
	case modeScenario:
		if rec, err := baseScenario.Record(); err == nil {
			records = append(records, rec)
		}
	case modeSweep:
		for i, pt := range sweepPoints {
			if rec, err := pt.Record(); err == nil {
				sweepRecs[i] = &rec
				records = append(records, rec)
			}
		}
	default:
		for _, name := range args {
			if scenario.IsPreset(strings.ToLower(name)) {
				if sc, err := scale.PresetScenario(strings.ToLower(name)); err == nil {
					if rec, err := sc.Record(); err == nil {
						records = append(records, rec)
					}
				}
			}
		}
	}

	// First SIGINT/SIGTERM: cancel the context so in-flight chunks finish,
	// checkpoint, and the journal seals. Second signal: force-quit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var gotTerm atomic.Bool
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		if s == syscall.SIGTERM {
			gotTerm.Store(true)
			fmt.Fprintf(os.Stderr, "relaxfault: terminated: stopping at the next chunk boundary (signal again to force-quit)\n")
		} else {
			fmt.Fprintf(os.Stderr, "relaxfault: interrupt: stopping at the next chunk boundary (interrupt again to force-quit)\n")
		}
		cancel()
		<-sigs
		fmt.Fprintf(os.Stderr, "relaxfault: killed\n")
		os.Exit(130)
	}()

	mon := harness.NewMonitor(os.Stderr, *progress)
	// The journal writer opens later (after scenario records resolve); the
	// status handler reads this pointer so /debug/status reports journal
	// health as soon as the writer exists.
	var jwLive atomic.Pointer[journal.Writer]

	// tracer is nil (every recording call a no-op) unless -trace was given:
	// tracing is strictly opt-in so untraced runs pay nothing.
	var tracer *runtrace.Recorder
	if *traceFlag != "" {
		tracer = runtrace.New()
	}
	scale.Trace = tracer

	// -store: open the content-addressed campaign store and route every
	// scenario run through the keyed campaign layer. The records every
	// keyed campaign resolves to are collected for the run manifest.
	var campRecs []harness.CampaignRecord
	if *storeFlag != "" {
		cs, err := cstore.Open(*storeFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 1
		}
		scale.Campaigns = cs
		scale.OnCampaign = func(r harness.CampaignRecord) { campRecs = append(campRecs, r) }
		scale.OnJournal = func(w *journal.Writer) { jwLive.Store(w) }
	}

	if *pprofAddr != "" {
		// Importing obs pulls in expvar, whose init registers /debug/vars on
		// the default mux; net/http/pprof likewise registers /debug/pprof/*.
		obs.Default().PublishExpvar("relaxfault")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.Default().WriteProm(w)
		})
		http.Handle("/debug/status", harness.StatusHandler(mon, jwLive.Load))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: pprof server: %v\n", err)
			}
		}()
	}

	// With -progress 0 the periodic reporter is never launched at all: no
	// goroutine, no ticker, nothing to stop at exit.
	stopMon := func() {}
	if *progress > 0 {
		stopMon = mon.Start()
	}
	defer stopMon()
	scale.Mon = mon
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 1
		}
		defer f.Close()
		mon.SetEventWriter(f)
	}
	manifest := harness.NewManifest()
	// The legacy explicit-path artifacts (-checkpoint/-journal/-resume) are
	// one unkeyed campaign: the campaign layer opens the checkpoint store,
	// opens or resumes the journal (cross-checking the snapshot first), and
	// embeds the resolved scenario records in the journal's open record.
	camp, err := campaign.OpenUnkeyed(campaign.UnkeyedConfig{
		Checkpoint: *checkpoint, Journal: *journalFlag, Resume: *resume,
		Seed: *seed, Records: records,
	}, campaign.Options{
		Workers: *parallel, Mon: mon, Trace: tracer,
		FlushInterval: *flushInterval, RepairJournal: *repairJournal,
		OnJournal: func(w *journal.Writer) { jwLive.Store(w) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	defer camp.Close()
	scale.Store = camp.Store()
	if st := camp.Store(); st != nil {
		defer func() {
			if err := st.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			}
		}()
	}
	jw := camp.Journal()
	crossVerified := camp.CrossVerified()

	runNames := args
	switch mode {
	case modeScenario:
		runNames = []string{baseScenario.Name}
	case modeSweep:
		runNames = make([]string, len(sweepPoints))
		for i, pt := range sweepPoints {
			runNames[i] = pt.Name
		}
	}
	mon.Event("run_start", map[string]any{
		"experiments": runNames,
		"scale":       *scaleFlag,
		"seed":        *seed,
	})

	// Graceful degradation: every requested experiment (or sweep point)
	// runs; failures are collected and summarised, and only the final exit
	// code reflects them.
	var failures []string
	interrupted := false
	runOne := func(name string, f func(context.Context) error) {
		if ctx.Err() != nil {
			interrupted = true
			return
		}
		mon.SetLabel(name)
		start := time.Now()
		expStart := tracer.Now()
		err := f(ctx)
		tracer.Span(runtrace.TrackMain, "experiment:"+name, -1, 0, expStart)
		switch {
		case err == nil:
			// Timing goes to stderr: stdout carries only the artifacts, so a
			// resumed run's stdout is byte-identical to an uninterrupted one.
			elapsed := time.Since(start)
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, elapsed.Round(time.Millisecond))
			obs.Default().Timer("experiments." + obs.SanitizeName(name) + ".seconds").Observe(elapsed)
			mon.Event("experiment_done", map[string]any{
				"experiment": name, "seconds": elapsed.Seconds(),
			})
		case errors.Is(err, context.Canceled) && ctx.Err() != nil:
			interrupted = true
		default:
			fmt.Fprintf(os.Stderr, "relaxfault: %s: %v\n", name, err)
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			mon.Event("experiment_failed", map[string]any{
				"experiment": name, "err": err.Error(),
			})
		}
	}

	switch mode {
	case modeScenario:
		runOne(baseScenario.Name, func(ctx context.Context) error {
			return runScenarioPoint(ctx, baseScenario, scale, *timeout)
		})
	case modeSweep:
		for i, pt := range sweepPoints {
			pm := harness.NewManifest()
			pm.Experiments = []string{pt.Name}
			pm.Scale = *scaleFlag
			pm.Seed = *pt.Seed
			pm.Checkpoint = *checkpoint
			if rec := sweepRecs[i]; rec != nil {
				pm.Scenarios = []harness.ScenarioRecord{*rec}
				pm.Fingerprint = rec.Fingerprint
			}
			done0, skip0, fail0, camp0 := mon.DoneTrials(), mon.Skipped(), len(failures), len(campRecs)
			runOne(pt.Name, func(ctx context.Context) error {
				return runScenarioPoint(ctx, pt, scale, *timeout)
			})
			pm.TrialsDone = mon.DoneTrials() - done0
			pm.TrialsSkipped = mon.Skipped() - skip0
			pm.Campaigns = append([]harness.CampaignRecord(nil), campRecs[camp0:]...)
			if len(failures) > fail0 {
				pm.ExitCode = 1
				pm.Failures = failures[fail0:]
			}
			pm.Finish()
			if path := sweepManifestPath(*metricsOut, *checkpoint, i); path != "" {
				if err := pm.WriteFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
				}
			}
			if interrupted {
				break
			}
		}
	default:
		runner := &runState{scale: scale}
		for _, name := range args {
			runOne(name, func(ctx context.Context) error {
				return runner.runExperiment(ctx, name, *timeout)
			})
			if interrupted {
				break
			}
		}
	}
	mon.SetLabel("")

	// Seal the journal before the manifest reports on it. "complete"
	// freezes the campaign; an interrupted or partly-failed run seals
	// "interrupted" so -resume can reopen it and append more chunks.
	if jw != nil {
		// The final checkpoint state must be durable before the seal
		// asserts anything about the campaign.
		if err := scale.Store.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		}
		status := journal.StatusComplete
		if interrupted || len(failures) > 0 {
			status = journal.StatusInterrupted
		}
		if err := jw.Seal(status); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: sealing journal: %v\n", err)
			failures = append(failures, fmt.Sprintf("journal seal: %v", err))
		}
	}

	code := 0
	switch {
	case interrupted:
		verb, sig := "interrupted", 130
		if gotTerm.Load() {
			verb, sig = "terminated", 143
		}
		fmt.Fprintf(os.Stderr, "relaxfault: %s", verb)
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "; partial results checkpointed to %s (restart with -resume)", *checkpoint)
		} else if *storeFlag != "" {
			fmt.Fprintf(os.Stderr, "; partial results checkpointed in %s (rerun the same command to resume)", *storeFlag)
		}
		fmt.Fprintf(os.Stderr, "\n")
		code = sig
	case len(failures) > 0:
		fmt.Fprintf(os.Stderr, "relaxfault: %d/%d experiments failed:\n", len(failures), len(runNames))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		code = 1
	case mon.Skipped() > 0:
		fmt.Fprintf(os.Stderr, "relaxfault: completed with %d skipped trials (partial success):\n", mon.Skipped())
		for _, s := range mon.Skips() {
			fmt.Fprintf(os.Stderr, "  %s\n", s)
		}
		code = 3
	}

	// Trace export: close the campaign span, analyze the schedule, embed the
	// attribution report in the manifest, publish runtrace.* gauges (before
	// Finish snapshots the registry), write the Chrome trace_event file, and
	// print the attribution table. Tracing is observation only — by this
	// point every artifact is already on stdout, so the table never perturbs
	// golden comparisons of untraced runs.
	if tracer.Enabled() {
		tracer.Record(runtrace.TrackMain, "campaign", -1, 0, 0, tracer.Now())
		rep := runtrace.Analyze(tracer)
		rep.Publish(obs.Default())
		manifest.Trace = rep
		if err := tracer.WriteChromeFile(*traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: writing trace: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "relaxfault: trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceFlag)
		}
		fmt.Print(rep.String())
	}

	manifest.Experiments = runNames
	manifest.Scale = *scaleFlag
	manifest.Seed = *seed
	manifest.Fingerprint = harness.Fingerprint("relaxfault-cli", *scaleFlag, *seed, runNames)
	manifest.Checkpoint = *checkpoint
	if jw != nil {
		manifest.Journal = *journalFlag
		manifest.JournalSealed = jw.Sealed()
		manifest.JournalChunks = jw.ChunkRecords()
		manifest.JournalVerifiedChunks = crossVerified
	}
	manifest.Scenarios = records
	manifest.Campaigns = campRecs
	manifest.TrialsDone = mon.DoneTrials()
	manifest.TrialsSkipped = mon.Skipped()
	manifest.Skips = mon.Skips()
	manifest.ExitCode = code
	manifest.Failures = failures
	manifest.Finish()
	mon.Event("run_done", map[string]any{
		"exit_code":    code,
		"trials_done":  manifest.TrialsDone,
		"wall_seconds": manifest.WallSeconds,
	})
	if err := writeManifest(manifest, *metricsOut, *checkpoint); err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// runVerify implements the verify subcommand: load the journal (recovering
// nothing — a torn tail is reported, not repaired), re-execute every
// journaled chunk from the campaign specs embedded in its open record, and
// compare digests. Exit 0 when everything verifies, 3 when any chunk
// mismatches or cannot be replayed, 1 on hard errors, 2 on usage errors.
func runVerify(rest []string, path string, workers int, progress time.Duration) int {
	if len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "relaxfault: verify takes no arguments (got %q)\n", rest)
		return 2
	}
	if path == "" {
		fmt.Fprintf(os.Stderr, "relaxfault: verify requires -journal FILE\n")
		return 2
	}
	j, err := journal.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	if j.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "relaxfault: verify: %s has a torn tail (%d byte(s), %s); verifying the valid prefix\n",
			path, j.TornBytes, j.TornReason)
	}
	mon := harness.NewMonitor(os.Stderr, progress)
	stopMon := func() {}
	if progress > 0 {
		stopMon = mon.Start()
	}
	defer stopMon()
	rep, err := scenario.VerifyJournal(context.Background(), j, scenario.Exec{Workers: workers, Mon: mon})
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	fmt.Println(rep)
	if rep.OK() {
		return 0
	}
	for _, m := range rep.Mismatched {
		fmt.Fprintf(os.Stderr, "relaxfault: verify: %s\n", m)
	}
	for _, k := range rep.Unknown {
		fmt.Fprintf(os.Stderr, "relaxfault: verify: %s chunk %d: no embedded campaign covers this section\n", k.Section, k.Chunk)
	}
	return 3
}

// flagRules is the cross-flag validation input: the detected subcommand
// plus every flag that participates in a cross-flag rule.
type flagRules struct {
	Sub                        string // "", "list", "verify", "cache", "sweep"
	Checkpoint, Journal, Store string
	Resume, RepairJournal      bool
	Sets                       int // number of -set occurrences
}

// validateFlags enforces every cross-flag rule in one place, at parse time,
// so an inconsistent invocation fails fast with a usage error instead of
// surfacing mid-run after artifacts were touched.
func validateFlags(r flagRules) error {
	switch r.Sub {
	case "verify":
		if r.Resume || r.Checkpoint != "" || r.Store != "" {
			return errors.New("verify replays a journal only; -resume, -checkpoint, and -store do not apply")
		}
		return nil
	case "cache":
		if r.Store == "" {
			return errors.New("cache requires -store DIR")
		}
		return nil
	case "list":
		return nil
	}
	if r.Store != "" && (r.Checkpoint != "" || r.Journal != "" || r.Resume) {
		return errors.New("-store manages checkpoints, journals, and resume itself; it conflicts with -checkpoint, -journal, and -resume")
	}
	if r.Resume && r.Checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}
	if r.Journal != "" && r.Checkpoint == "" {
		return errors.New("-journal requires -checkpoint (chunk records are cut when chunks are checkpointed)")
	}
	if r.RepairJournal && r.Store == "" && (r.Journal == "" || !r.Resume) {
		return errors.New("-repair-journal requires -resume and -journal (or -store)")
	}
	if r.Sets > 0 && r.Sub != "sweep" {
		return errors.New("-set is only meaningful with the sweep subcommand")
	}
	return nil
}

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string { return strings.Join(*r, " ") }

func (r *repeatedFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// loadScenarioArg resolves the -scenario argument: a registry preset name,
// or a path to a scenario JSON spec. Presets take their budget and seed
// from -scale/-seed; a spec file is authoritative for both, except that an
// explicitly passed -seed still overrides the file.
func loadScenarioArg(arg string, scale experiments.Scale, seedSet bool, seed uint64) (*scenario.Scenario, error) {
	if scenario.IsPreset(arg) {
		return scale.PresetScenario(arg)
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("-scenario %s: %w (not a preset name either; try the list subcommand)", arg, err)
	}
	sc, err := scenario.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("-scenario %s: %w", arg, err)
	}
	if seedSet {
		sc.Seed = &seed
	}
	return sc, nil
}

// runScenarioPoint executes one scenario — through the keyed campaign
// layer when a -store is attached, directly on the generic runner
// otherwise — and prints its generic rendering to stdout. Either path
// prints byte-identical artifacts.
func runScenarioPoint(ctx context.Context, sc *scenario.Scenario, scale experiments.Scale, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var res *scenario.Result
	var err error
	if scale.Campaigns != nil {
		var rec *harness.CampaignRecord
		res, rec, err = campaign.RunStore(ctx, sc, scale.Campaigns, campaign.Options{
			Workers: scale.Workers, Mon: scale.Mon, Trace: scale.Trace,
			OnJournal: scale.OnJournal,
		})
		if rec != nil && scale.OnCampaign != nil {
			scale.OnCampaign(*rec)
		}
	} else {
		res, err = scenario.RunCtx(ctx, sc, scenario.Exec{Workers: scale.Workers, Mon: scale.Mon, Store: scale.Store, Trace: scale.Trace})
	}
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}

// sweepManifestPath derives the per-point manifest path from the -metrics
// target (or the checkpoint manifest) by inserting a .sweepNN tag before
// the extension. Empty when neither target names a file.
func sweepManifestPath(metricsOut, checkpoint string, i int) string {
	var base string
	switch {
	case metricsOut != "" && metricsOut != "-":
		base = metricsOut
	case checkpoint != "":
		base = checkpoint + ".manifest.json"
	default:
		return ""
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.sweep%02d%s", strings.TrimSuffix(base, ext), i, ext)
}

// printPresetList prints the scenario registry (the list subcommand),
// including each preset's fingerprint and estimator configuration so runs
// are attributable from the listing alone.
func printPresetList() {
	fmt.Printf("%-10s %-12s %-16s %-34s %s\n", "name", "kind", "fingerprint", "statistics", "description")
	for _, e := range scenario.Presets() {
		fp := ""
		stats := ""
		if sc, err := scenario.Preset(e.Name); err == nil {
			if f, err := sc.Fingerprint(); err == nil {
				fp = f
			}
			stats = sc.Statistics.Summary()
		}
		fmt.Printf("%-10s %-12s %-16s %-34s %s\n", e.Name, e.Kind, fp, stats, e.Description)
	}
}

// parseArgs parses flags interleaved with experiment names, so both
// "relaxfault -scale quick fig13" and "relaxfault fig13 -scale quick" work.
func parseArgs() []string {
	flag.Parse()
	var positional []string
	rest := flag.Args()
	for len(rest) > 0 {
		if strings.HasPrefix(rest[0], "-") && len(rest[0]) > 1 {
			flag.CommandLine.Parse(rest)
			rest = flag.Args()
			continue
		}
		positional = append(positional, rest[0])
		rest = rest[1:]
	}
	return positional
}

// writeManifest persists the run manifest: always next to the checkpoint
// when one is in use, and additionally to the -metrics target ("-" prints
// JSON to stdout, after the experiment artifacts).
func writeManifest(m *harness.Manifest, target, checkpoint string) error {
	if checkpoint != "" {
		if err := m.WriteFile(checkpoint + ".manifest.json"); err != nil {
			return err
		}
	}
	switch target {
	case "":
		return nil
	case "-":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	default:
		return m.WriteFile(target)
	}
}

// runState caches results shared between experiments within one invocation:
// fig15 and fig16 render different views of the same simulations, so when
// both are requested (e.g. via "all") the workloads run once.
type runState struct {
	scale experiments.Scale
	fig15 *experiments.Fig15Result
}

// fig15And16 computes (or reuses) the shared Figure 15/16 simulations.
func (r *runState) fig15And16(ctx context.Context) (experiments.Fig15Result, error) {
	if r.fig15 != nil {
		return *r.fig15, nil
	}
	res, err := experiments.Fig15And16Ctx(ctx, r.scale)
	if err != nil {
		return res, err
	}
	r.fig15 = &res
	return res, nil
}

// runExperiment executes one experiment under an optional per-experiment
// deadline and prints its artifact to stdout.
func (r *runState) runExperiment(ctx context.Context, name string, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	scale := r.scale
	switch strings.ToLower(name) {
	case "tab1":
		fmt.Print(experiments.Table1())
	case "tab2":
		fmt.Print(experiments.Table2())
	case "tab3":
		fmt.Print(experiments.Table3())
	case "tab4":
		fmt.Print(experiments.Table4())
	case "fig2":
		fmt.Print(experiments.Fig2())
	case "fig8":
		res, err := experiments.Fig8Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig9":
		res, err := experiments.Fig9Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig10":
		res, err := experiments.Fig10Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig11":
		res, err := experiments.Fig11Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig12":
		one, ten, err := experiments.Fig12Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(one)
		fmt.Print(ten)
	case "fig13":
		one, ten, err := experiments.Fig13Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(one.StringSDC())
		fmt.Print(ten.StringSDC())
	case "fig14":
		res, err := experiments.Fig14Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig15":
		res, err := r.fig15And16(ctx)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "fig16":
		res, err := r.fig15And16(ctx)
		if err != nil {
			return err
		}
		fmt.Print(res.StringPower())
	case "ablate":
		res, err := experiments.AblationsCtx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "variants":
		res, err := experiments.GeometryVariantsCtx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "prefetch":
		res, err := experiments.PrefetchAblationCtx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "ddr4":
		res, err := experiments.DDR4PerfCtx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
	case "bench":
		res, err := experiments.BenchCtx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		file := "BENCH_coverage.json"
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[bench artifact written to %s]\n", file)
		d4, err := experiments.BenchDDR4Ctx(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Print(d4)
		out, err = json.MarshalIndent(d4, "", "  ")
		if err != nil {
			return err
		}
		file = "BENCH_ddr4.json"
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[bench artifact written to %s]\n", file)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `relaxfault regenerates the evaluation of "RelaxFault Memory Repair" (ISCA 2016).

usage: relaxfault [flags] <experiment> [...]
       relaxfault -scenario FILE|PRESET [-store DIR]
       relaxfault sweep -scenario FILE|PRESET -set path=v1,v2 [-set ...]
       relaxfault verify -journal FILE
       relaxfault cache [list|show KEY|evict KEY] -store DIR
       relaxfault list

flags:
  -scale quick|paper  effort level (default quick)
  -seed N             Monte Carlo seed (default 7)
  -timeout D          per-experiment deadline, e.g. 30m (default none)
  -progress D         stderr progress/watchdog interval (default 10s, 0 = silent)
  -checkpoint FILE    periodically snapshot Monte Carlo chunks to FILE
  -resume             restart from FILE's last snapshot (same flags + seed
                      reproduce the uninterrupted output exactly)
  -journal FILE       keep an append-only replay journal beside the
                      checkpoint: one fsync'd, digest-bearing record per
                      completed chunk, written before the chunk may enter a
                      snapshot; on -resume the snapshot is cross-checked
                      against it and mismatches refuse the resume
  -repair-journal     with -resume and -journal (or -store), quarantine
                      chunks that fail the cross-check (they are recomputed)
                      instead of refusing
  -store DIR          content-addressed campaign store: runs are keyed by
                      the scenario's budget-free campaign fingerprint + seed;
                      a repeat of a completed run is a verified cache hit
                      (digest cross-check, zero trials), and a larger trial
                      budget resumes from the largest cached entry — output
                      stays byte-identical to a from-scratch run; conflicts
                      with -checkpoint/-journal/-resume (the store lays its
                      own out per entry)
  -flush-interval D   checkpoint snapshot rate limit (default 2s); lower it
                      so short campaigns persist chunks quickly
  -metrics FILE|-     write the run manifest (config fingerprint, timings,
                      metrics snapshot); "-" prints JSON to stdout
  -events FILE        append JSONL progress/skip/run events to FILE
  -pprof ADDR         serve /debug/pprof, /debug/vars, /metrics, and a live
                      /debug/status JSON snapshot (per-worker chunk, trials/s,
                      ETA, journal health) on ADDR
  -trace FILE         record execution spans (chunk/claim/checkpoint/reduce-
                      wait per worker, fsync stalls, sections) and write a
                      Chrome trace_event JSON to FILE — load it in
                      https://ui.perfetto.dev; the scheduler-attribution
                      report lands in the manifest's "trace" block and is
                      printed as a table
  -parallel N         Monte Carlo worker pool size (default 0 = all cores);
                      any value yields bitwise-identical results
  -scenario F|P       run a scenario JSON file, or a preset by name, through
                      the generic runner (spec files carry their own budget
                      and seed; an explicit -seed overrides)
  -set path=v1,v2     sweep axis for the sweep subcommand (repeatable); the
                      cross-product of all -set axes runs, one manifest per
                      point next to the -metrics target

Flags may appear before or after experiment names. Every experiment below is
a preset scenario ("list" prints the registry); run manifests embed each
executed scenario's resolved spec and fingerprint. See EXPERIMENTS.md for the
scenario schema and OBSERVABILITY.md for the metric catalogue.

experiments:
  tab1   Table 1:  RelaxFault storage overhead
  tab2   Table 2:  DDR3 fault rates (FIT/device)
  tab3   Table 3:  simulated system parameters
  tab4   Table 4:  workload inventory
  fig2   Figure 2: field-study fault rates (Cielo, Hopper)
  fig8   Figure 8: coverage vs LLC set-index hashing
  fig9   Figure 9: fault-model sensitivity sweeps
  fig10  Figure 10: coverage vs LLC capacity (1x FIT)
  fig11  Figure 11: coverage vs LLC capacity (10x FIT)
  fig12  Figure 12: expected DUEs per system
  fig13  Figure 13: expected SDCs per system
  fig14  Figure 14: expected DIMM replacements
  fig15  Figure 15: weighted speedup under repair
  fig16  Figure 16: relative DRAM dynamic power
  all    everything above in order (failures are collected, not fatal)

extensions beyond the paper:
  ablate    design-choice ablations + retirement baselines (page retirement, mirroring)
  variants  RelaxFault coverage on DDR4 / HBM / LPDDR4 organisations
  ddr4      weighted speedup + relative power on DDR4-2400 (bank-group timing)
  prefetch  sensitivity of the performance conclusions to a stream prefetcher
  bench     time a quick coverage study and the DDR4 perf preset sequential vs
            -parallel N; verifies identical results, measures the rare-event
            estimator payoff (importance sampling vs naive at matched CI
            width), and writes BENCH_coverage.json and BENCH_ddr4.json

  rare-due and strat-due (run via -scenario) estimate DUE rates on a rare-
  event fault model with importance sampling (+ sequential CI stopping) and
  stratified-by-fault-mode sampling; a scenario's "statistics" block selects
  the estimator, and manifests record the achieved half-widths.

Scenarios may pin a memory technology ("technology": "ddr3-1600", "ddr4-2400",
"lpddr4", or "hbm"); timing, energies, FIT table, and PPR provisioning follow,
and manifests record the resolved name + fingerprint.

The cache subcommand manages a -store DIR: "cache list" prints every
completed entry (campaign key, seed, trials, scenario, age), "cache show
KEY" dumps the matching entries' metadata as JSON, and "cache evict KEY"
removes every entry under a key prefix (refusing keys a live run has
claimed).

The verify subcommand replays a journal end to end: campaign specs embedded
in the journal's open record are lowered and every journaled chunk is
re-executed from its RNG fork coordinates, comparing SHA-256 digests. It
needs only the journal file — no checkpoint or original command line.

exit codes: 0 ok; 1 experiment failure; 2 usage; 3 completed with skipped
trials or journal verification mismatches; 130 interrupted (SIGINT);
143 terminated (SIGTERM).
`)
}
