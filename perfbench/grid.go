package main

import (
	"errors"
	"fmt"
	"time"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
)

// tallies maps a spec key to its outcome counts, in classify.Outcomes()
// order.
type tallies map[string][4]int

func countsOf(t classify.Tally) [4]int {
	var c [4]int
	for i, o := range classify.Outcomes() {
		c[i] = t.Count(o)
	}
	return c
}

// roundResult is one closed-loop round: a complete, deterministic campaign
// grid at one seed.
type roundResult struct {
	use     usage // the measured window; use.wall is its length
	runs    int   // injection runs attempted
	failed  int   // runs of specs that returned an error
	setup   time.Duration
	tallies tallies
	events  []runEvent // RunDone events of the measured campaigns
	ledger  []runEvent // RunDone events of the tapped campaigns
	// storeBytes is the size of the round's results store (fleet only).
	storeBytes int64
	dropped    map[string]int64
	problems   []string
}

// workload is one benchmark workload: set up once (or several times, to
// time set-up), then run in rounds.
type workload interface {
	// prepare builds the workload's campaigns and their worlds, profiles
	// them, and returns the time until the first injection run could
	// begin. The last call's campaigns are the ones rounds run.
	prepare(seed uint64, t *tap) (time.Duration, error)
	// round runs every campaign once at seed; traced rounds run the
	// tapped copies.
	round(seed uint64, t *tap, traced bool) (roundResult, error)
	close() error
}

// errPrepared stops a frontend once its grid is set up: the RunGrid hook
// returns it instead of running the grid.
var errPrepared = errors.New("grid prepared")

// grid is a campaign grid built through an experiments frontend and run
// on one core.Engine, whose shared pool of jobs slots keeps the loop
// closed: a run starts only when a slot frees.
type grid struct {
	name  string
	jobs  int
	runs  int // per spec and round
	build func(o experiments.Options) error

	e       *core.Engine
	plain   []core.CampaignSpec
	wrapped []core.CampaignSpec
}

// withConfig returns copies of specs with edit applied to each config.
func withConfig(specs []core.CampaignSpec, edit func(*core.CampaignConfig)) []core.CampaignSpec {
	out := make([]core.CampaignSpec, len(specs))
	for i, s := range specs {
		edit(&s.Config)
		out[i] = s
	}
	return out
}

// prepare runs the frontend with a RunGrid hook that captures its specs
// and prepares every world on a fresh engine: a pass whose Abort hook
// fires before the first dispatch runs Setup and the profiling pass of
// each spec, which the engine memoizes, and no injection run.
func (g *grid) prepare(seed uint64, t *tap) (time.Duration, error) {
	start := time.Now()
	var ready time.Duration
	hook := func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
		built := time.Since(start)
		g.plain, g.wrapped = specs, t.wrapSpecs(specs)
		prep := g.plain
		if t.phase.Load() == phaseSetup {
			prep = g.wrapped
			t.addSetup(setupSpan{Key: g.name, Kind: "build", Ns: int64(built)})
		}
		prep = withConfig(prep, func(c *core.CampaignConfig) { c.Abort = func() bool { return true } })
		for _, r := range e.Run(prep) {
			if !errors.Is(r.Err, core.ErrAborted) {
				return nil, fmt.Errorf("prepare %s: %v", r.Spec.Key, r.Err)
			}
		}
		ready = time.Since(start)
		g.e = e
		return nil, errPrepared
	}
	err := g.build(experiments.Options{Runs: g.runs, Seed: seed, Jobs: g.jobs, Engine: &core.Engine{Jobs: g.jobs}, RunGrid: hook})
	if !errors.Is(err, errPrepared) {
		if err == nil {
			err = errors.New("frontend returned without running its grid")
		}
		return 0, fmt.Errorf("%s: %w", g.name, err)
	}
	return ready, nil
}

func (g *grid) round(seed uint64, t *tap, traced bool) (roundResult, error) {
	specs := g.plain
	if traced {
		specs = g.wrapped
	}
	specs = withConfig(specs, func(c *core.CampaignConfig) { c.Seed = seed })
	bus := core.NewEventBus()
	log := &eventLog{}
	sub := bus.Subscribe(0, log.consume)
	g.e.Events = bus
	m := startMeter()
	res := g.e.Run(specs)
	use := m.stop()
	bus.Close()
	g.e.Events = nil

	rr := roundResult{use: use, tallies: tallies{}, events: log.runs, dropped: map[string]int64{g.name: sub.Dropped()}}
	if traced {
		rr.ledger = log.runs
	}
	for _, r := range res {
		n := r.Spec.Config.Runs
		rr.runs += n
		if r.Err != nil {
			rr.failed += n
			rr.problems = append(rr.problems, fmt.Sprintf("%s: %s: %v", g.name, r.Spec.Key, r.Err))
			continue
		}
		c := countsOf(r.Result.Tally)
		if sum := c[0] + c[1] + c[2] + c[3]; sum != n {
			rr.problems = append(rr.problems, fmt.Sprintf("%s: %s: tally sums to %d of %d runs", g.name, r.Spec.Key, sum, n))
		}
		rr.tallies[r.Spec.Key] = c
	}
	return rr, nil
}

func (g *grid) close() error { return nil }

// newFig7 is the Figure 7 grid as cmd/experiments -fig 7 runs it: six
// cells at the paper-default Nyx size × BF/SW/DW, in memory, at jobs = the
// CPUs available.
func newFig7(jobs int) *grid {
	return &grid{name: "fig7", jobs: jobs, runs: 10, build: func(o experiments.Options) error {
		_, _, err := experiments.Fig7(o)
		return err
	}}
}

// newReadWrite is the read-vs-write grid as cmd/experiments -readwrite
// runs it: nyx, qmcpack and MT2 pipelines × every registered model × flat
// and tiered worlds, at jobs=1.
func newReadWrite() *grid {
	return &grid{name: "readwrite", jobs: 1, runs: 3, build: func(o experiments.Options) error {
		_, _, err := experiments.ReadWriteGrid(o)
		return err
	}}
}
