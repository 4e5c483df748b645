package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ffis/internal/campaignd"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
)

// fleetRuns is the runs per spec of the fleet workload: cmd/campaignd's
// default -runs, and the paper's 1,000 injections per cell. Each spec is
// one lease, so it also sets how many runs share a lease's world rebuild.
const fleetRuns = 1000

// fleetWorkers is the worker count of the fleet workload; each runs the
// cmd/ffis-worker defaults except jobs=1, so the fleet uses two threads.
const fleetWorkers = 2

// fleet runs each round as a fresh distributed campaign: a loopback
// campaignd coordinator owning an on-disk results store, and two workers
// that lease qmcpack × BF/SW/DW/MD from it. ref runs the same specs in
// memory, as the reference the store must match.
type fleet struct {
	dir  string
	wire []experiments.WireSpec
	ref  *grid

	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	base   *http.Transport
	cur    atomic.Pointer[campaign]
	n      int
}

// campaign is the coordinator of the round in flight.
type campaign struct {
	h      http.Handler
	coord  *campaignd.Coordinator
	once   sync.Once
	done   chan struct{}
	doneAt time.Time
}

func newFleet(dir string, runs int, t *tap) (*fleet, error) {
	f := &fleet{dir: dir}
	for _, m := range []string{"bit-flip", "shorn-write", "dropped-write", "misdirected-write"} {
		f.wire = append(f.wire, experiments.WireSpec{Cell: "qmcpack", Model: m, Runs: runs}.Normalized())
	}
	f.ref = &grid{name: "fleet-ref", jobs: runtime.NumCPU(), runs: runs, build: func(o experiments.Options) error {
		specs := make([]core.CampaignSpec, len(f.wire))
		for i, ws := range f.wire {
			ws.Seed = o.Seed
			s, err := ws.CampaignSpec()
			if err != nil {
				return err
			}
			specs[i] = s
		}
		_, err := o.RunGrid(o.Engine, specs)
		return err
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: t.handler(http.HandlerFunc(f.serve)), ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.base = http.DefaultTransport.(*http.Transport).Clone()
	f.base.MaxConnsPerHost = runtime.NumCPU()
	f.client = &http.Client{Transport: transport{t: t, base: f.base}}
	return f, nil
}

// serve routes to the current round's coordinator and notes when its grid
// is complete: the end of the round's measured window.
func (f *fleet) serve(w http.ResponseWriter, r *http.Request) {
	c := f.cur.Load()
	if c == nil {
		http.Error(w, "no campaign in flight", http.StatusServiceUnavailable)
		return
	}
	c.h.ServeHTTP(w, r)
	if r.URL.Path == "/complete" && c.coord.Done() {
		c.once.Do(func() {
			c.doneAt = time.Now()
			close(c.done)
		})
	}
}

// prepare sets up the in-memory reference; every distributed round sets
// itself up again, as a fresh campaign does.
func (f *fleet) prepare(seed uint64, t *tap) (time.Duration, error) {
	return f.ref.prepare(seed, t)
}

func (f *fleet) round(seed uint64, t *tap, traced bool) (roundResult, error) {
	f.n++
	dir := filepath.Join(f.dir, fmt.Sprintf("campaign-%d", f.n))
	if err := os.RemoveAll(dir); err != nil {
		return roundResult{}, err
	}
	defer os.RemoveAll(dir)
	wire := append([]experiments.WireSpec(nil), f.wire...)
	runs := 0
	for i := range wire {
		wire[i].Seed = seed
		runs += wire[i].Runs
	}

	start := time.Now()
	m := startMeter()
	man, err := campaignd.ManifestFor(wire)
	if err != nil {
		return roundResult{}, err
	}
	st, err := results.Create(dir, man)
	if err != nil {
		return roundResult{}, err
	}
	coord, err := campaignd.NewCoordinator(st, wire, 0)
	if err != nil {
		return roundResult{}, err
	}
	c := &campaign{h: coord.Handler(), coord: coord, done: make(chan struct{})}
	f.cur.Store(c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	logs := make([]*eventLog, fleetWorkers)
	buses := make([]*core.EventBus, fleetWorkers)
	subs := make([]*core.Subscription, fleetWorkers)
	errs := make([]error, fleetWorkers)
	for i := range fleetWorkers {
		logs[i], buses[i] = &eventLog{}, core.NewEventBus()
		subs[i] = buses[i].Subscribe(0, logs[i].consume)
		w := &campaignd.Worker{
			ID: fmt.Sprintf("worker-%d", i), Coordinator: f.url, Client: f.client,
			Jobs: 1, Prefetch: true, Events: buses[i],
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	gridDone := false
	select {
	case <-c.done:
		gridDone = true
	case <-exited:
	}
	use := m.stop()
	// Once the grid is complete the workers only poll for more leases;
	// stop them rather than wait out their poll interval.
	cancel()
	<-exited
	for _, b := range buses {
		b.Close()
	}
	f.cur.Store(nil)
	closeErr := coord.Close()

	rr := roundResult{use: use, runs: runs, tallies: tallies{}, dropped: map[string]int64{}}
	first := time.Time{}
	for i, l := range logs {
		rr.events = append(rr.events, l.runs...)
		rr.dropped[fmt.Sprintf("worker-%d", i)] = subs[i].Dropped()
		if !l.firstStart.IsZero() && (first.IsZero() || l.firstStart.Before(first)) {
			first = l.firstStart
		}
		if errs[i] != nil && !(gridDone && errors.Is(errs[i], context.Canceled)) {
			rr.problems = append(rr.problems, fmt.Sprintf("fleet: worker-%d: %v", i, errs[i]))
		}
	}
	if closeErr != nil {
		rr.problems = append(rr.problems, fmt.Sprintf("fleet: coordinator close: %v", closeErr))
	}
	if gridDone && !first.IsZero() {
		rr.setup = first.Sub(start)
		rr.use.wall = c.doneAt.Sub(first)
	} else {
		rr.problems = append(rr.problems, "fleet: grid did not complete")
	}

	// The store must reopen with the tallies of the in-memory run.
	ref, err := f.ref.round(seed, t, traced)
	if err != nil {
		return roundResult{}, err
	}
	rr.problems = append(rr.problems, ref.problems...)
	rr.ledger = ref.ledger
	persisted := 0
	if rr.storeBytes, err = dirBytes(dir); err != nil {
		rr.problems = append(rr.problems, fmt.Sprintf("fleet: store size: %v", err))
	}
	stored, err := storeTallies(dir)
	if err != nil {
		rr.problems = append(rr.problems, fmt.Sprintf("fleet: reopen store: %v", err))
	}
	for _, ws := range wire {
		got, ok := stored[ws.Key]
		sum := got[0] + got[1] + got[2] + got[3]
		persisted += sum
		switch {
		case !ok:
			rr.problems = append(rr.problems, fmt.Sprintf("fleet: %s: not finalized in the store", ws.Key))
		case sum != ws.Runs:
			rr.problems = append(rr.problems, fmt.Sprintf("fleet: %s: store tally sums to %d of %d runs", ws.Key, sum, ws.Runs))
		case got != ref.tallies[ws.Key]:
			rr.problems = append(rr.problems, fmt.Sprintf("fleet: %s: store tally %v, in-memory run %v", ws.Key, got, ref.tallies[ws.Key]))
		}
		rr.tallies[ws.Key] = got
	}
	rr.failed = runs - persisted
	return rr, nil
}

// storeTallies reopens a campaign store and tallies its finalized specs.
func storeTallies(dir string) (tallies, error) {
	st, err := results.Open(dir)
	if err != nil {
		return nil, err
	}
	data, _, err := st.Load()
	if err != nil {
		return nil, err
	}
	out := tallies{}
	for _, d := range data {
		if !d.Final {
			continue
		}
		res, err := d.CampaignResult()
		if err != nil {
			return nil, err
		}
		out[d.Key] = countsOf(res.Tally)
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (f *fleet) close() error {
	err := f.srv.Close()
	<-f.served
	f.base.CloseIdleConnections()
	return err
}
