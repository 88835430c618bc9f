// Command relaxfault regenerates the tables and figures of "RelaxFault
// Memory Repair" (Kim & Erez, ISCA 2016) from this repository's simulators.
//
// Usage:
//
//	relaxfault [-scale quick|paper] [-seed N] [-parallel N] [-timeout D]
//	           [-progress D] [-store DIR]
//	           [-metrics FILE|-] [-events FILE] [-pprof ADDR] [-trace FILE]
//	           <experiment> [...]
//	relaxfault -scenario FILE|PRESET [-store DIR]
//	relaxfault sweep -scenario FILE|PRESET -set path=v1,v2 [-set ...]
//	relaxfault verify -journal FILE
//	relaxfault cache [list|show KEY|evict KEY] -store DIR
//	relaxfault list
//
// Experiments: tab1 tab2 tab3 tab4 fig2 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 all, plus the extensions ablate variants prefetch ddr4.
//
// Every experiment is a preset scenario in internal/scenario's registry;
// "list" prints them. -scenario runs any scenario — a preset name or a JSON
// spec file — through the generic runner, and "sweep" runs the cross-product
// of -set overrides over a base scenario, writing one manifest per point.
// Experiment names, a -scenario, and a sweep all resolve to a list of named
// points before anything is opened, so a typoed name is a usage error.
//
// Monte Carlo campaigns run on a sharded worker pool (-parallel N, default
// all cores). Trials are claimed as fixed-size chunk indexes and every node
// derives its RNG stream from the root seed alone, so the output is bitwise
// identical for any worker count; the golden and scheduling-differential
// tests in internal/experiments pin that identity.
//
// The run harness makes long campaigns survivable: ^C or SIGTERM cancels
// gracefully at the next work-chunk boundary (a second signal force-quits),
// -timeout bounds each experiment, -store DIR keeps every campaign's log —
// rerunning the same command continues a killed run from it with
// bitwise-identical output — and a requested experiment that fails no
// longer aborts the rest: failures are collected and summarised.
//
// -store DIR is a content-addressed campaign store: every coverage or
// reliability scenario run is one entry, keyed by its budget-free campaign
// fingerprint and seed. A perf or static scenario logs no chunks, so it
// keeps no entry and runs as it would without -store.
// The entry's campaign log is its one durable artifact: an append-only,
// fsync'd file with one record per completed chunk, carrying the chunk's
// payload and its digest. A rerun resumes an entry whose run was killed: a
// torn tail is cut and every payload is checked against its digest before
// the run trusts it; a log that cannot be continued is recomputed. A
// repeated run is a verified cache hit (zero trials execute), and a bumped
// trial budget resumes from the largest cached entry instead of starting
// over. "relaxfault cache" lists, inspects, and evicts store entries, and
// "relaxfault verify -journal FILE" re-executes every chunk of an entry's
// log from the campaign spec embedded in the log itself and compares
// digests — no original command line needed.
//
// Telemetry (see OBSERVABILITY.md): -metrics writes a run manifest with the
// full metrics snapshot, -events streams JSONL progress/run events, and
// -pprof serves net/http/pprof, expvar, Prometheus text metrics, and a live
// GET /debug/status JSON snapshot (per-worker current chunk, trials/s, ETA,
// journal health) while the run is live. -trace FILE records execution spans
// (chunk/claim/checkpoint/reduce-wait per worker, fsync stalls, sections)
// and writes a Chrome trace_event JSON loadable in Perfetto, embeds the
// scheduler-attribution report as the manifest's "trace" block, and prints
// it as a table. Flags may appear before or after experiment names.
//
// A Monte Carlo trial that panics fails its experiment, with an error naming
// the campaign section, chunk, trial and seed; relsim.ReplayNode reproduces
// the trial.
//
// Exit codes: 0 success; 1 at least one experiment failed; 2 usage error;
// 3 a journal verification found mismatched or unverifiable chunks;
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

// options holds the parsed command line flags.
type options struct {
	scale, journal, metrics, events string
	pprof, trace, scenario, store   string
	seed                            uint64
	seedSet                         bool
	timeout, progress               time.Duration
	parallel                        int
	sets                            repeatedFlag
}

// parseFlags defines every flag — its help text is the one source usage
// prints — and parses them interleaved with the positional arguments.
func parseFlags() (*options, []string) {
	o := &options{}
	flag.StringVar(&o.scale, "scale", "quick", "effort level: quick or paper")
	flag.Uint64Var(&o.seed, "seed", 7, "Monte Carlo seed")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-experiment deadline, e.g. 30m (0 = none)")
	flag.DurationVar(&o.progress, "progress", 10*time.Second, "progress/watchdog report interval on stderr (0 = silent)")
	flag.StringVar(&o.journal, "journal", "", "the campaign log `FILE` the verify subcommand replays (a run keeps one log per scenario in its -store entry)")
	flag.StringVar(&o.metrics, "metrics", "", "write the run manifest (config fingerprint, timings, metrics snapshot) to `FILE`; \"-\" prints JSON to stdout")
	flag.StringVar(&o.events, "events", "", "append JSONL progress/run events to `FILE`")
	flag.StringVar(&o.pprof, "pprof", "", "serve /debug/pprof, /debug/vars, Prometheus /metrics, and a live /debug/status snapshot (per-worker chunk, trials/s, ETA, journal health) on `ADDR`, e.g. localhost:6060")
	flag.StringVar(&o.trace, "trace", "", "record execution spans and write a Perfetto-loadable Chrome trace_event JSON to `FILE`; the scheduler-attribution report lands in the manifest's \"trace\" block and is printed as a table")
	flag.IntVar(&o.parallel, "parallel", 0, "Monte Carlo worker pool size (0 = all cores); any value yields bitwise-identical results")
	flag.StringVar(&o.scenario, "scenario", "", "run the scenario `FILE|PRESET` (a JSON spec file or a registry preset) through the generic runner; spec files carry their own budget and seed, an explicit -seed overrides")
	flag.StringVar(&o.store, "store", "", "content-addressed campaign store `DIR`: each coverage or reliability scenario keeps its campaign log (one fsync'd record per completed chunk, carrying its payload and digest) in its own entry; rerunning the same command resumes a killed run with identical output, a repeated run is a verified cache hit (zero trials), and a larger trial budget resumes from the largest cached entry")
	flag.Var(&o.sets, "set", "sweep axis `path=v1[,v2...]` for the sweep subcommand (repeatable); the cross-product runs, one manifest per point next to the -metrics target")
	flag.Usage = usage
	args := parseArgs()
	flag.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	return o, args
}

// subcommands maps a leading positional argument to its handler. Anything
// else is the default run: experiment names or a -scenario.
var subcommands = map[string]func(o *options, args []string) int{
	"list": func(_ *options, args []string) int {
		if len(args) > 0 {
			fmt.Fprintf(os.Stderr, "relaxfault: list takes no arguments (got %q)\n", args)
			return 2
		}
		printPresetList()
		return 0
	},
	"verify": func(o *options, args []string) int { return runVerify(args, o.journal, o.parallel, o.progress) },
	"cache":  func(o *options, args []string) int { return runCache(args, o.store) },
	"sweep":  func(o *options, args []string) int { return runPoints(o, args, true) },
}

func run() int {
	o, args := parseFlags()
	// Every cross-flag rule is checked here, at parse time, before any
	// artifact is touched.
	sub := ""
	if len(args) > 0 && subcommands[args[0]] != nil {
		sub, args = args[0], args[1:]
	}
	if err := validateFlags(flagRules{
		Sub: sub, Journal: o.journal, Store: o.store, Sets: len(o.sets),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 2
	}
	if sub != "" {
		return subcommands[sub](o, args)
	}
	if len(args) == 0 && o.scenario == "" {
		usage()
		return 2
	}
	return runPoints(o, args, false)
}

// point is one named unit of a run — an experiment, the -scenario, or one
// sweep point — with the scenario it runs and that scenario's record for
// the manifest (both nil for the static tables), and the rendering of the
// scenario's result as its artifact. Points presenting one simulation share
// its scenario and record.
type point struct {
	name   string
	rec    *journal.Campaign
	sc     *scenario.Scenario
	render func(*scenario.Result) string
}

// records returns the record of every scenario the points run, once each,
// in point order.
func records(pts []point) []journal.Campaign {
	var out []journal.Campaign
	seen := map[*journal.Campaign]bool{}
	for _, p := range pts {
		if p.rec != nil && !seen[p.rec] {
			seen[p.rec] = true
			out = append(out, *p.rec)
		}
	}
	return out
}

// presetAt resolves the named registry preset at the run's budget and seed.
func presetAt(name string, b scenario.Budget, seed uint64) (*scenario.Scenario, error) {
	sc, err := scenario.Preset(name)
	if err != nil {
		return nil, err
	}
	sc.Budget, sc.Seed = b, &seed
	return sc, nil
}

// resolve turns the positional arguments into the run's points: experiment
// names ("all" expanded), the -scenario, or the sweep's expansion of it.
// It also returns the run's seed: -seed for experiments, the resolved
// seed of the -scenario otherwise. Every error is a usage error, returned
// before any artifact is opened.
func resolve(o *options, args []string, sweep bool, budget scenario.Budget) ([]point, uint64, error) {
	if o.scenario == "" {
		if sweep {
			return nil, 0, errors.New("sweep requires -scenario FILE|PRESET")
		}
		names, err := experiments.Resolve(args)
		if err != nil {
			return nil, 0, err
		}
		// Experiments presenting one preset's results share its scenario
		// and record, so the runner runs it once and the manifest embeds
		// it once.
		shared := map[string]*point{}
		pts := make([]point, len(names))
		for i, name := range names {
			e, _ := experiments.Lookup(name)
			pts[i] = point{name: name, render: e.Render}
			if e.Preset == "" {
				continue
			}
			if shared[e.Preset] == nil {
				sc, err := presetAt(e.Preset, budget, o.seed)
				if err != nil {
					return nil, 0, err
				}
				if shared[e.Preset], err = scenarioPoint(sc); err != nil {
					return nil, 0, err
				}
			}
			pts[i].sc, pts[i].rec = shared[e.Preset].sc, shared[e.Preset].rec
		}
		return pts, o.seed, nil
	}
	if len(args) > 0 {
		return nil, 0, fmt.Errorf("-scenario and sweep take no experiment names (got %q)", args)
	}
	base, err := loadScenarioArg(o.scenario, budget, o.seedSet, o.seed)
	if err != nil {
		return nil, 0, err
	}
	scs := []*scenario.Scenario{base}
	if sweep {
		var axes []scenario.SweepSet
		for _, raw := range o.sets {
			ax, err := scenario.ParseSet(raw)
			if err != nil {
				return nil, 0, err
			}
			axes = append(axes, ax)
		}
		if scs, err = scenario.Expand(base, axes); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(os.Stderr, "relaxfault: sweep expands to %d points\n", len(scs))
	}
	pts := make([]point, len(scs))
	for i, sc := range scs {
		p, err := scenarioPoint(sc)
		if err != nil {
			return nil, 0, err
		}
		pts[i] = *p
	}
	return pts, *base.Seed, nil
}

// scenarioPoint is the point running sc, named after it, with its record.
func scenarioPoint(sc *scenario.Scenario) (*point, error) {
	rec, err := sc.Record()
	if err != nil {
		return nil, err
	}
	return &point{name: sc.Name, rec: &rec, sc: sc, render: (*scenario.Result).String}, nil
}

// runner runs the points' scenarios through the campaign layer, which
// keeps each checkpointing scenario's log in its -store entry and runs the
// rest, and every scenario without -store, directly. It keeps results by
// scenario, so points presenting one simulation — fig12 and fig13, fig15
// and fig16 — share one run.
type runner struct {
	opts    campaign.Options
	store   *cstore.Store
	results map[*scenario.Scenario]*scenario.Result
	// campaigns collects the record of every stored campaign for the run
	// manifest.
	campaigns []harness.CampaignRecord
}

// run renders p's artifact, running its scenario unless an earlier point
// already did.
func (r *runner) run(ctx context.Context, p point) (string, error) {
	if p.sc == nil {
		return p.render(nil), nil
	}
	if r.results[p.sc] == nil {
		res, rec, err := campaign.RunStore(ctx, p.sc, r.store, r.opts)
		if rec != nil {
			r.campaigns = append(r.campaigns, *rec)
		}
		if err != nil {
			return "", err
		}
		r.results[p.sc] = res
	}
	return p.render(r.results[p.sc]), nil
}

// runPoints is the default run and the sweep subcommand: resolve the
// points, open the run's artifacts, execute every point in one loop, then
// write the manifest. A sweep additionally writes one manifest per point.
func runPoints(o *options, args []string, sweep bool) int {
	budget := scenario.DefaultBudget()
	switch o.scale {
	case "quick":
	case "paper":
		budget = scenario.PaperBudget()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", o.scale)
		return 2
	}

	points, seed, err := resolve(o, args, sweep, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 2
	}
	runNames := make([]string, len(points))
	for i, p := range points {
		runNames[i] = p.name
	}

	// First SIGINT/SIGTERM: cancel the context so in-flight chunks finish
	// and are logged, and the campaign's log seals. Second signal:
	// force-quit.
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

	// The campaign layer attaches each log writer to mon as it opens, so
	// /debug/status reports log health as soon as the writer exists.
	mon := harness.NewMonitor(os.Stderr, o.progress)

	// tracer is nil (every recording call a no-op) unless -trace was given:
	// tracing is strictly opt-in so untraced runs pay nothing.
	var tracer *runtrace.Recorder
	if o.trace != "" {
		tracer = runtrace.New()
	}

	r := &runner{
		opts:    campaign.Options{Workers: o.parallel, Mon: mon, Trace: tracer},
		results: map[*scenario.Scenario]*scenario.Result{},
	}
	if o.store != "" {
		if r.store, err = cstore.Open(o.store); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 1
		}
	}

	if o.pprof != "" {
		// Importing obs pulls in expvar, whose init registers /debug/vars on
		// the default mux; net/http/pprof likewise registers /debug/pprof/*.
		obs.Default().PublishExpvar("relaxfault")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.Default().WriteProm(w)
		})
		http.Handle("/debug/status", harness.StatusHandler(mon))
		go func() {
			if err := http.ListenAndServe(o.pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: pprof server: %v\n", err)
			}
		}()
	}

	// With -progress 0 the periodic reporter is never launched at all: no
	// goroutine, no ticker, nothing to stop at exit.
	stopMon := func() {}
	if o.progress > 0 {
		stopMon = mon.Start()
	}
	defer stopMon()
	if o.events != "" {
		f, err := os.OpenFile(o.events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 1
		}
		defer f.Close()
		mon.SetEventWriter(f)
	}
	manifest := harness.NewManifest()
	mon.Event("run_start", map[string]any{
		"experiments": runNames,
		"scale":       o.scale,
		"seed":        seed,
	})

	// Graceful degradation: every point runs; failures are collected and
	// summarised, and only the final exit code reflects them.
	var failures []string
	interrupted := false
	begun := 0 // points whose run began; the manifest records their scenarios
	for i, p := range points {
		done0, fail0, camp0 := mon.DoneTrials(), len(failures), len(r.campaigns)
		// A sweep point's manifest opens before the point runs, so its wall
		// and CPU time are the point's own.
		var pm *harness.Manifest
		if sweep {
			pm = harness.NewManifest()
		}
		if ctx.Err() != nil {
			interrupted = true
		} else {
			begun = i + 1
			err := runPoint(ctx, p, r, o.timeout)
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				interrupted = true
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "relaxfault: %s: %v\n", p.name, err)
				if n := len(r.campaigns); errors.Is(err, context.DeadlineExceeded) && n > camp0 &&
					r.campaigns[n-1].Source != harness.CampaignCacheHit {
					fmt.Fprintf(os.Stderr, "relaxfault: %s: its campaign log in %s was sealed interrupted (rerun the same command to resume)\n",
						p.name, o.store)
				}
				failures = append(failures, fmt.Sprintf("%s: %v", p.name, err))
				mon.Event("experiment_failed", map[string]any{
					"experiment": p.name, "err": err.Error(),
				})
			}
		}
		if sweep {
			pm.Experiments = []string{p.name}
			pm.Scale = o.scale
			pm.Seed = *p.sc.Seed // every sweep point runs a scenario
			pm.Scenarios = []journal.Campaign{*p.rec}
			pm.Fingerprint = p.rec.Fingerprint
			pm.TrialsDone = mon.DoneTrials() - done0
			pm.Campaigns = append([]harness.CampaignRecord(nil), r.campaigns[camp0:]...)
			if len(failures) > fail0 {
				pm.ExitCode = 1
				pm.Failures = failures[fail0:]
			}
			pm.Finish()
			if path := sweepManifestPath(o.metrics, i); path != "" {
				if err := pm.WriteFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
				}
			}
		}
		if interrupted {
			break
		}
	}
	mon.SetLabel("")

	code := 0
	switch {
	case interrupted:
		verb, sig := "interrupted", 130
		if gotTerm.Load() {
			verb, sig = "terminated", 143
		}
		fmt.Fprintf(os.Stderr, "relaxfault: %s", verb)
		if o.store != "" {
			fmt.Fprintf(os.Stderr, "; partial results checkpointed in %s (rerun the same command to resume)", o.store)
		}
		fmt.Fprintf(os.Stderr, "\n")
		code = sig
	case len(failures) > 0:
		fmt.Fprintf(os.Stderr, "relaxfault: %d/%d experiments failed:\n", len(failures), len(runNames))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		code = 1
	}

	// Trace export: close the campaign span, analyze the schedule, embed the
	// attribution report in the manifest, write the Chrome trace_event file,
	// and print the attribution table. Tracing is observation only — by this
	// point every artifact is already on stdout, so the table never perturbs
	// golden comparisons of untraced runs.
	if tracer.Enabled() {
		tracer.Record(runtrace.TrackMain, "campaign", -1, 0, 0, tracer.Now())
		rep := runtrace.Analyze(tracer)
		manifest.Trace = rep
		if err := tracer.WriteChromeFile(o.trace); err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: writing trace: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "relaxfault: trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", o.trace)
		}
		fmt.Print(rep.String())
	}

	manifest.Experiments = runNames
	manifest.Scale = o.scale
	manifest.Seed = seed
	manifest.Fingerprint = harness.Fingerprint("relaxfault-cli", o.scale, seed, runNames)
	manifest.Scenarios = records(points[:begun])
	manifest.Campaigns = r.campaigns
	manifest.TrialsDone = mon.DoneTrials()
	manifest.ExitCode = code
	manifest.Failures = failures
	manifest.Finish()
	mon.Event("run_done", map[string]any{
		"exit_code":    code,
		"trials_done":  manifest.TrialsDone,
		"wall_seconds": manifest.WallSeconds,
	})
	if err := writeManifest(manifest, o.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// runPoint executes one point under the optional per-point deadline,
// prints its artifact to stdout, and reports its timing.
func runPoint(ctx context.Context, p point, r *runner, timeout time.Duration) error {
	mon, tracer := r.opts.Mon, r.opts.Trace
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	mon.SetLabel(p.name)
	start := time.Now()
	expStart := tracer.Now()
	out, err := r.run(ctx, p)
	tracer.Span(runtrace.TrackMain, "experiment:"+p.name, -1, 0, expStart)
	if err != nil {
		return err
	}
	fmt.Print(out)
	// Timing goes to stderr: stdout carries only the artifacts, so a
	// resumed run's stdout is byte-identical to an uninterrupted one.
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", p.name, elapsed.Round(time.Millisecond))
	obs.Default().Timer("experiments." + obs.SanitizeName(p.name) + ".seconds").Observe(elapsed)
	mon.Event("experiment_done", map[string]any{
		"experiment": p.name, "seconds": elapsed.Seconds(),
	})
	return nil
}

// runVerify implements the verify subcommand: load the campaign log
// (recovering nothing — a torn tail is reported, not repaired), re-execute
// every logged chunk from the campaign specs embedded in its open record,
// and compare digests. Exit 0 when everything verifies, 3 when any chunk
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
	Sub            string // "", "list", "verify", "cache", "sweep"
	Journal, Store string
	Sets           int // number of -set occurrences
}

// validateFlags enforces every cross-flag rule in one place, at parse time,
// so an inconsistent invocation fails fast with a usage error instead of
// surfacing mid-run after artifacts were touched.
func validateFlags(r flagRules) error {
	if r.Sets > 0 && r.Sub != "sweep" {
		return errors.New("-set is only meaningful with the sweep subcommand")
	}
	switch r.Sub {
	case "verify":
		if r.Store != "" {
			return errors.New("verify replays a journal only; -store does not apply")
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
	if r.Journal != "" {
		return errors.New("-journal names the verify subcommand's input; a run keeps its campaign logs in -store DIR")
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
func loadScenarioArg(arg string, budget scenario.Budget, seedSet bool, seed uint64) (*scenario.Scenario, error) {
	if scenario.IsPreset(arg) {
		return presetAt(arg, budget, seed)
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

// sweepManifestPath derives the per-point manifest path from the -metrics
// target by inserting a .sweepNN tag before the extension. Empty when the
// target names no file.
func sweepManifestPath(metricsOut string, i int) string {
	if metricsOut == "" || metricsOut == "-" {
		return ""
	}
	ext := filepath.Ext(metricsOut)
	return fmt.Sprintf("%s.sweep%02d%s", strings.TrimSuffix(metricsOut, ext), i, ext)
}

// printPresetList prints the scenario registry (the list subcommand),
// including each preset's fingerprint and estimator configuration so runs
// are attributable from the listing alone.
func printPresetList() {
	fmt.Printf("%-10s %-12s %-16s %-34s %s\n", "name", "kind", "fingerprint", "statistics", "description")
	for _, r := range presetRows() {
		fmt.Printf("%-10s %-12s %-16s %-34s %s\n", r.name, r.kind, r.fingerprint, r.statistics, r.description)
	}
}

// presetRow is one preset's line in the list subcommand.
type presetRow struct {
	name, kind, fingerprint, statistics, description string
}

// presetRows describes every registry preset. Only a reliability scenario
// can carry a statistics block, so only reliability presets name an
// estimator; the other kinds leave the column blank.
func presetRows() []presetRow {
	var rows []presetRow
	for _, e := range scenario.Presets() {
		r := presetRow{name: e.Name, kind: string(e.Kind), description: e.Description}
		if sc, err := scenario.Preset(e.Name); err == nil {
			if f, err := sc.Fingerprint(); err == nil {
				r.fingerprint = f
			}
			if e.Kind == scenario.KindReliability {
				r.statistics = sc.Statistics.Summary()
			}
		}
		rows = append(rows, r)
	}
	return rows
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

// writeManifest persists the run manifest to the -metrics target ("-"
// prints JSON to stdout, after the experiment artifacts).
func writeManifest(m *harness.Manifest, target string) error {
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

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, `relaxfault regenerates the evaluation of "RelaxFault Memory Repair" (ISCA 2016).

usage: relaxfault [flags] <experiment> [...]
       relaxfault -scenario FILE|PRESET [-store DIR]
       relaxfault sweep -scenario FILE|PRESET -set path=v1,v2 [-set ...]
       relaxfault verify -journal FILE
       relaxfault cache [list|show KEY|evict KEY] -store DIR
       relaxfault list

flags (they may appear before or after experiment names):
`)
	flag.PrintDefaults()
	desc := map[string]string{}
	for _, e := range scenario.Presets() {
		desc[e.Name] = e.Description
	}
	paper, extensions := experiments.Names()
	fmt.Fprintf(out, "\nexperiments (each a preset scenario; \"list\" prints the registry):\n")
	for _, name := range paper {
		fmt.Fprintf(out, "  %-9s %s\n", name, desc[name])
	}
	fmt.Fprintf(out, "  %-9s everything above in order (failures are collected, not fatal)\n", "all")
	fmt.Fprintf(out, "\nextensions beyond the paper:\n")
	for _, name := range extensions {
		fmt.Fprintf(out, "  %-9s %s\n", name, desc[name])
	}
	fmt.Fprintf(out, `
Every other preset (rare-due, strat-due, ...) and any scenario JSON runs via
-scenario; a reliability scenario's "statistics" block selects the estimator,
and a scenario's "technology" the memory technology. Run manifests embed each
executed scenario's resolved spec and fingerprint. See EXPERIMENTS.md for the
schema and OBSERVABILITY.md for the metric catalogue.

"cache list" prints every completed -store entry with its directory under the
store, "cache show KEY" dumps the matching entries' metadata as JSON, and
"cache evict KEY" removes every entry under a key prefix (refusing keys a live
run has claimed). "verify" replays a campaign log end to end from the campaign
spec embedded in it, comparing chunk digests; it needs only the log file (an
entry's checkpoint.jsonl).

exit codes: 0 ok; 1 experiment failure (a panicking trial fails its
experiment); 2 usage; 3 journal verification mismatches; 130 interrupted
(SIGINT); 143 terminated (SIGTERM).
`)
}
