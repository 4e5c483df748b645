// Command ffis runs a single fault-injection campaign cell: one application
// (nyx, qmcpack, MT1..MT4) under one registered fault model, named by its
// long name, short code, or alias — mirroring the paper's per-cell
// methodology (profile, N randomized injections, outcome classification).
// `ffis -list-models` (or `-model list`) prints the registry: any model
// added there, including the misdirected-write and short-read extensions,
// is immediately runnable with no CLI changes.
//
// Usage:
//
//	ffis -app nyx -model dw -runs 1000
//	ffis -app MT2 -model sw -runs 200 -csv
//	ffis -app MT2 -model latent -runs 200
//	ffis -app MT2 -model misdirected-write -runs 200
//	ffis -list-models
//
// Tiered storage: -mount builds a multi-backend world (repeatable, syntax
// PATH[=BACKEND]; campaigns require hermetic backends — mem, object[:lag=N],
// latency[:bb|:pfs] — while os:DIR is rejected) and -arm restricts injection
// to the I/O routed to the named mounts, leaving every other tier clean.
// Without -mount, -backend swaps the whole flat world's storage backend:
//
//	ffis -app nyx -model bf -mount /plt00000 -mount /out -arm /plt00000
//	ffis -app nyx -model bf -mount /plt00000=latency:bb -arm /plt00000
//	ffis -app MT2 -model dw -backend object:lag=2
//
// The flags shared with cmd/experiments — run budget, seed, -jobs,
// -adaptive, -ci, -progress, -trace, and the results store
// (-out/-resume/-shard/-merge/-report) — come from internal/cli. Stores are
// seed-deterministic: resumed and merged stores are byte-identical to an
// uninterrupted single-process run.
//
//	ffis -app MT2 -model bf -runs 1000 -out ./res          # durable campaign
//	ffis -app MT2 -model bf -runs 1000 -out ./res -resume  # continue after a crash
//	ffis -app MT2 -model bf -runs 1000 -out ./s0 -shard 0/2
//	ffis -app MT2 -model bf -runs 1000 -out ./s1 -shard 1/2
//	ffis -merge ./s0 -merge ./s1 -out ./res                # reassemble shards
//	ffis -out ./res -report markdown                       # re-render from disk
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ffis/internal/classify"
	"ffis/internal/cli"
	"ffis/internal/core"
	"ffis/internal/experiments"
)

func main() {
	shared := cli.Register("ffis", flag.CommandLine)
	var (
		app     = flag.String("app", "nyx", "campaign cell: nyx, qmcpack, MT1, MT2, MT3, MT4")
		model   = flag.String("model", "bf", "fault model name, short code, or alias (see -list-models); 'list' prints the registry")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of a table")
		asJSON  = flag.Bool("json", false, "emit the machine-readable JSON result")
		ioTrace = flag.Bool("iotrace", false, "print the workload's fault-free I/O pattern profile first")
		shots   = flag.Int("shots", 0, "override the fault model's shot budget (0 = model default; >1 only affects multi-shot models)")
		backend = flag.String("backend", "mem", "storage backend of the flat world: mem, object[:lag=N], latency[:bb|:pfs] (with -mount, set backends per mount instead)")
	)
	var mountSpecs, armMounts cli.StringList
	flag.Var(&mountSpecs, "mount", "mount a backend at PATH[=BACKEND] (repeatable; BACKEND: mem, object[:lag=N], latency[:bb|:pfs], os:DIR)")
	flag.Var(&armMounts, "arm", "arm the injector only on this mount point (repeatable; requires -mount)")
	flag.Parse()

	if shared.ListModels || strings.EqualFold(*model, "list") {
		fmt.Print(core.ModelTable())
		return
	}
	served, err := shared.Serve(os.Stdout)
	shared.Check(err)
	if served {
		return
	}
	fm, mounts, err := validate(*model, *backend, mountSpecs, armMounts)
	shared.Check(err)
	opts, err := shared.Start(experiments.Options{
		Mounts:    mounts,
		Backend:   *backend,
		ArmMounts: armMounts,
		Shots:     *shots,
	}, os.Stderr)
	shared.Check(err)

	// One spec, built once: -iotrace profiles exactly the workload the
	// campaign then runs (the pipeline variant under read-path models).
	spec, err := experiments.CellSpec(*app, fm, opts)
	shared.Check(err)
	if *ioTrace {
		prof, err := cli.TraceSpec(spec)
		shared.Check(err)
		fmt.Print(prof.Render())
	}
	grid, err := opts.RunGrid(opts.Engine, []core.CampaignSpec{spec})
	shared.Check(err)
	res := grid[0].Result
	// Flush the event subscribers before rendering: the trace file must be
	// complete (and its drop count reported) whether the campaign
	// succeeded or not.
	shared.Finish()
	shared.Check(grid[0].Err)
	if len(armMounts) > 0 {
		fmt.Printf("injector armed on mounts: %s (all other tiers stay clean)\n",
			strings.Join(armMounts, ", "))
	}
	if shared.Out != "" {
		note := ""
		if shared.Shard != "" {
			note = fmt.Sprintf(" (shard %s)", shared.Shard)
		}
		fmt.Printf("run records persisted to %s%s; re-render any time with -out %s -report FORMAT\n",
			shared.Out, note, shared.Out)
	}
	fmt.Printf("fault signature: %s\n", res.Signature)
	fmt.Printf("profiled %d dynamic executions of the target primitive\n", res.ProfileCount)
	if res.StopIndex > 0 {
		fmt.Printf("adaptive stop at run %d of the %d-run budget (target half-width %.3g)\n",
			res.StopIndex, shared.Runs, shared.Adaptive)
	}
	if res.SimNanos > 0 {
		fmt.Printf("simulated I/O time: %.3fms across all runs\n", float64(res.SimNanos)/1e6)
	}
	executed := res.Tally.Total()
	switch {
	case *asJSON:
		shared.Check(core.WriteResultsJSON(os.Stdout, []core.CampaignResult{res}))
	case *asCSV && shared.CI:
		fmt.Print(classify.CSVCI([]classify.Cell{res.Cell()}))
	case *asCSV:
		fmt.Print(classify.CSV([]classify.Cell{res.Cell()}))
	case shared.CI:
		fmt.Print(classify.TableCI(fmt.Sprintf("campaign %s (%d runs)", res.Cell().Label, executed),
			[]classify.Cell{res.Cell()}))
	default:
		fmt.Print(classify.Table(fmt.Sprintf("campaign %s (%d runs)", res.Cell().Label, executed),
			[]classify.Cell{res.Cell()}))
	}
}

// validate checks the command's own flags: the fault model and the world
// shape. Campaigns need hermetic per-run state, so host-directory (os:)
// backends are refused.
func validate(model, backend string, mountSpecs, armMounts []string) (core.Model, []experiments.MountSpec, error) {
	fm, err := core.ParseModel(model)
	if err != nil {
		return nil, nil, cli.Usagef("%v", err)
	}
	mounts, err := experiments.ParseMountSpecs(mountSpecs)
	if err != nil {
		return nil, nil, cli.Usagef("%v", err)
	}
	for _, m := range mounts {
		// An os: backend is one shared host directory mutated by every
		// (possibly parallel) run; reject it here rather than tally noise.
		if !experiments.HermeticBackend(m.Backend) {
			return nil, nil, cli.Usagef("mount %s=%s: campaigns need hermetic per-run state; use a hermetic backend (os: backends are for library-level one-shot inspection)", m.Path, m.Backend)
		}
	}
	if err := cli.CampaignBackend(backend); err != nil {
		return nil, nil, err
	}
	if backend != "mem" && len(mounts) > 0 {
		return nil, nil, cli.Usagef("-backend applies to the flat world only; with -mount, name backends per mount (PATH=BACKEND)")
	}
	if len(armMounts) > 0 && len(mounts) == 0 {
		return nil, nil, cli.Usagef("-arm needs a mounted world; add -mount flags")
	}
	return fm, mounts, nil
}
