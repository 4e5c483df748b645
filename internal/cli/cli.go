// Package cli is the campaign front door shared by cmd/ffis and
// cmd/experiments. It owns the flags the two commands have in common — run
// budget, seed, pool width, adaptive stopping, event streaming, and the
// results-store lifecycle (-out/-resume/-shard/-merge/-report) — and the
// commands keep only the flags that choose what to run. A command calls
// Serve, validates its own flags, then calls Start: every usage check and
// the -merge/-report exits run before Start creates any file, so a
// rejected invocation never leaves a store or a trace behind. Check ends
// the process on an error (usage errors exit 2, the rest 1) after flushing
// the event stream; Finish flushes it once the campaigns are done.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/progress"
	"ffis/internal/results"
	"ffis/internal/stats"
	"ffis/internal/trace"
)

// StringList is a repeatable string flag.
type StringList []string

func (l *StringList) String() string { return strings.Join(*l, ",") }

func (l *StringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// Shared holds the parsed values of the flags every campaign command
// shares.
type Shared struct {
	Runs        int
	Seed        uint64
	Jobs        int
	NyxN        int
	AvgDetector bool
	Adaptive    float64
	CI          bool
	Progress    bool
	Trace       string
	Out         string
	Resume      bool
	Shard       string
	Report      string
	Merge       StringList
	ListModels  bool

	name   string        // the command, prefixed to every message
	shard  results.Shard // -shard, parsed by Serve
	stderr io.Writer     // where Finish reports a trace failure
	flush  func() error  // the event wiring's flush, set by Start
}

// Register defines the shared flags of the named command on fs and returns
// their destination.
func Register(name string, fs *flag.FlagSet) *Shared {
	s := &Shared{name: name}
	fs.IntVar(&s.Runs, "runs", 1000, "fault-injection runs per campaign cell (the paper uses 1000)")
	fs.Uint64Var(&s.Seed, "seed", 2021, "campaign seed")
	fs.IntVar(&s.Jobs, "jobs", 0, "campaign engine pool width shared across every cell (0 = GOMAXPROCS)")
	fs.IntVar(&s.NyxN, "nyx-n", 0, "override the Nyx grid edge (0 = default 48)")
	fs.BoolVar(&s.AvgDetector, "avg-detector", false, "apply the Nyx average-value detection method")
	fs.Float64Var(&s.Adaptive, "adaptive", 0, "adaptive stopping: each cell halts when every outcome rate's Wilson 95% half-width is under this target (-runs becomes the budget cap; 0 = fixed budget)")
	fs.BoolVar(&s.CI, "ci", false, "render outcome columns as rate ±halfwidth (Wilson 95%)")
	fs.BoolVar(&s.Progress, "progress", false, "stream per-campaign progress to stderr")
	fs.StringVar(&s.Trace, "trace", "", "stream per-run lifecycle events (spec_start, run_done with stage timings, barriers, spec_done) as JSONL to this file")
	fs.StringVar(&s.Out, "out", "", "stream run records to a JSONL results store at this directory")
	fs.BoolVar(&s.Resume, "resume", false, "resume the interrupted store at -out, skipping persisted runs")
	fs.StringVar(&s.Shard, "shard", "", "execute only shard i/n of every cell's run indices (requires -out; e.g. 0/4)")
	fs.StringVar(&s.Report, "report", "", "re-render the store at -out (text, csv, json, markdown) and exit without running")
	fs.Var(&s.Merge, "merge", "merge this shard store into -out (repeatable) and exit without running")
	fs.BoolVar(&s.ListModels, "list-models", false, "print the fault-model registry table and exit")
	return s
}

// usageError is a command-line misuse, built by Usagef.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// Usagef builds a command-line misuse error, which Check exits 2 on.
func Usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// exitCode maps an invocation's outcome to its process exit status: 0 on
// success, 2 for a usage error, 1 for anything that failed at run time.
func exitCode(err error) int {
	var u *usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &u):
		return 2
	default:
		return 1
	}
}

// Check ends the process on a non-nil err: it flushes the events (so a
// failed run still leaves a complete trace), reports "name: err" on stderr
// and exits with the status exitCode assigns.
func (s *Shared) Check(err error) {
	if err == nil {
		return
	}
	s.Finish()
	fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
	os.Exit(exitCode(err))
}

// Serve validates the shared flags against each other and serves -merge
// and -report to stdout. served reports that one of them ran and the
// command is done; otherwise the command validates its own flags and calls
// Start. Nothing here creates a file unless -merge asks for it.
func (s *Shared) Serve(stdout io.Writer) (served bool, err error) {
	if (s.Resume || s.Shard != "" || s.Report != "" || len(s.Merge) > 0) && s.Out == "" {
		return false, Usagef("-resume, -shard, -report, and -merge all operate on a results store; add -out DIR")
	}
	if s.Adaptive > 0 && s.Shard != "" {
		// A shard owns every n-th run index, never a complete prefix, so
		// an adaptive rule cannot evaluate its barriers on one.
		return false, Usagef("-adaptive cannot run under -shard (a shard never holds a complete run prefix); drop one of them")
	}
	if s.shard, err = results.ParseShard(s.Shard); err != nil {
		return false, err
	}
	if len(s.Merge) > 0 {
		if err := results.Merge(s.Out, s.Merge...); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "merged %d shard stores into %s\n", len(s.Merge), s.Out)
		return true, nil
	}
	if s.Report != "" {
		st, err := results.Open(s.Out)
		if err != nil {
			return false, err
		}
		out, err := results.Report(st, s.Report)
		if err != nil {
			return false, err
		}
		fmt.Fprint(stdout, out)
		return true, nil
	}
	return false, nil
}

// Start prepares the run once Serve has passed it on. It returns o with
// the shared flags applied and Engine, RunGrid and Stop filled in —
// RunGrid persists into the store under -out and runs in memory otherwise.
// Start opens the store first (its manifest records o.Backend, "mem" as
// the default ""), then the trace file; call Finish once the campaigns
// are done.
func (s *Shared) Start(o experiments.Options, stderr io.Writer) (experiments.Options, error) {
	o.Runs, o.Seed, o.Jobs, o.NyxN = s.Runs, s.Seed, s.Jobs, s.NyxN
	o.UseAvgDetector, o.CI = s.AvgDetector, s.CI
	if s.Adaptive > 0 {
		o.Stop = &stats.StopRule{TargetHalfWidth: s.Adaptive}
	}
	o.RunGrid = func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
		return e.Run(specs), nil
	}
	if s.Out != "" {
		backend := o.Backend
		if backend == "mem" {
			backend = ""
		}
		st, err := results.CreateOrResume(s.Out, s.Resume, results.Manifest{
			Seed: s.Seed, Runs: s.Runs, Shard: s.shard.String(), Backend: backend,
		})
		if err != nil {
			return o, err
		}
		o.RunGrid = func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
			return results.RunGrid(e, st, s.shard, specs)
		}
	}
	var progressTo io.Writer
	if s.Progress {
		progressTo = stderr
	}
	bus, flush, err := progress.Wire(progressTo, s.Trace, stderr)
	if err != nil {
		return o, err
	}
	s.stderr, s.flush = stderr, flush
	// One engine for everything the invocation runs, so world snapshots
	// and profile passes memoize across grids instead of per call.
	o.Engine = &core.Engine{Jobs: o.Jobs, Events: bus}
	return o, nil
}

// Finish flushes the event subscribers and closes the trace file,
// reporting a trace write failure. Calls after the first, or before
// Start, do nothing.
func (s *Shared) Finish() {
	if s.flush == nil {
		return
	}
	flush := s.flush
	s.flush = nil
	if err := flush(); err != nil {
		fmt.Fprintf(s.stderr, "%s: trace: %v\n", s.name, err)
	}
}

// CampaignBackend rejects a storage backend a campaign cannot run on: an
// unknown grammar, or a host-directory (os:) backend, which every run would
// share and mutate instead of getting hermetic per-run state.
func CampaignBackend(backend string) error {
	if err := experiments.ValidateBackend(backend); err != nil {
		return Usagef("%v", err)
	}
	if !experiments.HermeticBackend(backend) {
		return Usagef("-backend %s: campaigns need hermetic per-run state; use mem, object, or latency", backend)
	}
	return nil
}

// TraceSpec runs the spec's workload once, fault-free, on the post-Setup
// world its campaign runs on, and returns the I/O pattern profile of that
// run — the pattern the profiling pass is about to count and the injector
// to strike.
func TraceSpec(spec core.CampaignSpec) (*trace.Profile, error) {
	snap, err := core.NewWorldSnapshot(spec.Workload)
	if err != nil {
		return nil, err
	}
	world, err := snap.World()
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(world)
	if err := spec.Workload.Run(rec); err != nil {
		return nil, fmt.Errorf("trace run: %w", err)
	}
	return trace.Analyze(rec.Log()), nil
}
