// Command benchgrid appends one data point to the repository's performance
// trajectory file (BENCH_grid.json at the repo root). Each point records,
// for a reduced-scale configuration:
//
//   - wall-clock time of the Figure 7 grid on the campaign engine vs the
//     pre-engine sequential path (the headline engine speedup);
//   - wall-clock time of one MT4 campaign under COW world clones vs
//     rebuilt-per-run worlds (the world-lifecycle speedup);
//   - the runs an adaptive MT2 campaign saves against its fixed budget
//     (budget − executed runs at the target Wilson half-width);
//   - wall-clock time of a tiered MT2 placement sweep across the three
//     hermetic backends (mem, object, latency) — the cost of re-running a
//     placement grid under every backend the mount table can host;
//   - wall-clock time of a small MT1 grid through the campaignd
//     coordinator with three loopback workers vs the same grid run
//     locally — the protocol overhead of the distributed campaign path;
//   - the run-event harness overhead: one 10,000-run MT2 campaign with
//     the event stream off vs on with both standard subscribers (line
//     renderer + JSONL trace writer) aimed at io.Discard, as a percent.
//     -check enforces an absolute ceiling (-max-overhead) on it, so event
//     emission can never quietly become a tax on the run pool.
//
// CI's bench-smoke job runs it on every push and uploads the refreshed
// file as a build artifact; committed points form the long-term trajectory
// reviewers diff against. The file is an append-only JSON array — existing
// points are preserved byte-for-byte (modulo re-indentation), so a point
// written by an older schema survives newer tools.
//
// Usage:
//
//	benchgrid                      # append a point to ./BENCH_grid.json
//	benchgrid -out ./BENCH.json -runs 48
//	benchgrid -dry-run             # print the point, write nothing
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"ffis/internal/campaignd"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/progress"
	"ffis/internal/results"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// point is one trajectory sample. Times are integer milliseconds: coarse
// enough to be honest about run-to-run noise, fine enough to see a 2×
// regression.
type point struct {
	Date string `json:"date"` // UTC, RFC 3339
	Go   string `json:"go"`   // toolchain that produced the point
	Note string `json:"note,omitempty"`

	// Reduced-scale grid configuration the times were measured at.
	Runs int    `json:"runs"`
	Seed uint64 `json:"seed"`
	NyxN int    `json:"nyx_n"`

	Fig7EngineMS     int64 `json:"fig7_grid_engine_ms"`
	Fig7SequentialMS int64 `json:"fig7_grid_sequential_ms"`
	MT4CowMS         int64 `json:"mt4_campaign_cow_ms"`
	MT4FreshMS       int64 `json:"mt4_campaign_fresh_ms"`

	// Clone + one 4 KiB first write against file size: with extent-backed
	// COW the two numbers stay within the same order of magnitude — the
	// divergence cost is O(bytes written), not O(file size). omitempty
	// keeps points written before the metric existed decodable as zero.
	CloneWrite1MiBUS  int64 `json:"cow_clone_write4k_1mib_us,omitempty"`
	CloneWrite64MiBUS int64 `json:"cow_clone_write4k_64mib_us,omitempty"`

	// One MT2 placement sweep under each hermetic backend (mem, object,
	// latency) — times the whole-object RMW and simulated-clock overhead the
	// object and latency backends add to the tiered path. omitempty keeps
	// older points decodable as zero and excluded from the -check gate.
	TieredBackendSweepMS int64 `json:"tiered_backend_sweep_ms,omitempty"`

	// The same small grid run once locally and once through the campaignd
	// coordinator with three loopback workers — the HTTP leasing, strict-
	// order ingest, and re-marshal overhead of the distributed path. The
	// distributed time is the gated metric; the local time rides along for
	// the ratio. omitempty keeps older points decodable as zero.
	Distributed3WorkerMS int64 `json:"distributed_3worker_vs_local_ms,omitempty"`
	DistributedLocalMS   int64 `json:"distributed_local_ms,omitempty"`

	// Percent wall-clock added to a 10,000-run MT2 campaign by the event
	// bus with both standard subscribers attached (vs no bus at all). Can
	// be slightly negative on a noisy machine — the true cost per run is
	// sub-microsecond — which is exactly why -check gates it with an
	// absolute ceiling rather than against the previous point.
	MT2HarnessOverheadPct float64 `json:"mt2_10k_harness_overhead_pct"`

	Adaptive adaptivePoint `json:"adaptive"`
}

// adaptivePoint records the runs-saved-by-adaptive counter: one cell run
// under a sequential stopping rule, compared against its fixed budget.
type adaptivePoint struct {
	Cell            string  `json:"cell"`
	Model           string  `json:"model"`
	TargetHalfWidth float64 `json:"target_half_width"`
	Budget          int     `json:"budget"`
	RunsSpent       int     `json:"runs_spent"`
	RunsSaved       int     `json:"runs_saved"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_grid.json", "trajectory file to append to")
		runs     = flag.Int("runs", 24, "runs per grid cell for the timing measurements")
		seed     = flag.Uint64("seed", 2021, "campaign seed")
		nyxN     = flag.Int("nyx-n", 24, "Nyx grid edge for the timing measurements")
		target   = flag.Float64("adaptive", 0.02, "target Wilson half-width for the runs-saved measurement")
		budget   = flag.Int("budget", 1000, "fixed run budget the adaptive campaign is measured against")
		note     = flag.String("note", "", "free-form annotation stored with the point")
		dry      = flag.Bool("dry-run", false, "print the measured point without touching -out")
		check    = flag.Bool("check", false, "fail (exit 1) when the fresh point regresses more than -max-regress against the last entry in -out, or mt2_10k_harness_overhead_pct exceeds -max-overhead")
		regress  = flag.Float64("max-regress", 0.30, "fractional regression of fig7_grid_engine_ms, mt4_campaign_cow_ms, tiered_backend_sweep_ms, or distributed_3worker_vs_local_ms tolerated by -check")
		overhead = flag.Float64("max-overhead", 10, "absolute ceiling (percent) -check enforces on mt2_10k_harness_overhead_pct")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "benchgrid: %v\n", err)
		os.Exit(1)
	}

	p, err := measure(*runs, *seed, *nyxN, *target, *budget)
	if err != nil {
		die(err)
	}
	p.Date = time.Now().UTC().Format(time.RFC3339)
	p.Go = runtime.Version()
	p.Note = *note

	enc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		die(err)
	}
	fmt.Printf("%s\n", enc)
	if *check {
		prior, err := loadPoints(*out)
		if err != nil && !os.IsNotExist(err) {
			die(err)
		}
		if err := checkRegression(prior, p, *regress, *overhead); err != nil {
			die(err)
		}
		fmt.Printf("within %d%% of the last committed point\n", int(*regress*100))
	}
	if *dry {
		return
	}
	if err := appendPoint(*out, p); err != nil {
		die(err)
	}
	fmt.Printf("appended to %s\n", *out)
}

// checkRegression compares the fresh point against the newest prior entry
// on the hot-path wall times the ROADMAP trajectory gates: the Figure 7
// engine grid, the MT4 COW campaign, and the tiered backend sweep. A fresh
// time more than frac above
// the committed one fails, so the trajectory is enforced in CI, not just
// recorded. Prior points missing a metric (older schema, zero value) are
// not compared on it. The harness-overhead percent is gated against the
// absolute maxOverhead ceiling instead — the metric hovers around zero,
// so a fraction-of-last-point comparison would be pure noise. Every
// failing metric is reported, not just the first.
func checkRegression(prior []json.RawMessage, p point, frac, maxOverhead float64) error {
	var bad []string
	if p.MT2HarnessOverheadPct > maxOverhead {
		bad = append(bad, fmt.Sprintf("mt2_10k_harness_overhead_pct: %.1f%% exceeds the %.0f%% ceiling (emission is taxing the run pool)",
			p.MT2HarnessOverheadPct, maxOverhead))
	}
	var last point
	if len(prior) > 0 {
		if err := json.Unmarshal(prior[len(prior)-1], &last); err != nil {
			return fmt.Errorf("last committed point does not parse: %w", err)
		}
	}
	for _, m := range []struct {
		name       string
		last, this int64
	}{
		{"fig7_grid_engine_ms", last.Fig7EngineMS, p.Fig7EngineMS},
		{"mt4_campaign_cow_ms", last.MT4CowMS, p.MT4CowMS},
		{"tiered_backend_sweep_ms", last.TieredBackendSweepMS, p.TieredBackendSweepMS},
		{"distributed_3worker_vs_local_ms", last.Distributed3WorkerMS, p.Distributed3WorkerMS},
	} {
		// Prior points written before a metric existed decode it as zero;
		// skip rather than compare against nothing.
		if m.last <= 0 {
			continue
		}
		if limit := float64(m.last) * (1 + frac); float64(m.this) > limit {
			bad = append(bad, fmt.Sprintf("%s: %d ms vs committed %d ms (limit %.0f ms)",
				m.name, m.this, m.last, limit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("performance regression (limit %d%% over the last point):\n  %s",
			int(frac*100), strings.Join(bad, "\n  "))
	}
	return nil
}

// measure runs the reduced grid and campaign configurations and times them.
// Grid times use a single-threaded pool (Jobs: 1) so the engine-vs-
// sequential ratio reflects the COW/memoization win, not core count; the
// adaptive measurement is run-count arithmetic, so it uses the default pool.
func measure(runs int, seed uint64, nyxN int, target float64, budget int) (point, error) {
	o := experiments.Options{Runs: runs, Seed: seed, NyxN: nyxN, Jobs: 1}
	p := point{Runs: runs, Seed: seed, NyxN: nyxN}

	t0 := time.Now()
	if _, _, err := experiments.Fig7(o); err != nil {
		return p, fmt.Errorf("fig7 engine: %w", err)
	}
	p.Fig7EngineMS = time.Since(t0).Milliseconds()

	t0 = time.Now()
	if _, _, err := experiments.Fig7Sequential(o); err != nil {
		return p, fmt.Errorf("fig7 sequential: %w", err)
	}
	p.Fig7SequentialMS = time.Since(t0).Milliseconds()

	w, err := experiments.NewWorkload("MT4", o)
	if err != nil {
		return p, fmt.Errorf("MT4 workload: %w", err)
	}
	// The MT4 campaign wall times are tens of milliseconds — a one-shot
	// timing sits on the scheduler's noise floor and would trip the -check
	// gate on transient load. Take the minimum of three repetitions (the
	// usual "how fast can this code go" estimator); the seconds-long grid
	// times above are stable enough single-shot.
	const mtReps = 3
	for _, fresh := range []bool{false, true} {
		var best int64
		for r := 0; r < mtReps; r++ {
			t0 = time.Now()
			if _, err := core.Campaign(core.CampaignConfig{
				Fault:       core.Config{Model: core.BitFlip},
				Runs:        runs,
				Seed:        seed,
				FreshWorlds: fresh,
			}, w); err != nil {
				return p, fmt.Errorf("MT4 campaign (fresh=%v): %w", fresh, err)
			}
			if ms := time.Since(t0).Milliseconds(); r == 0 || ms < best {
				best = ms
			}
		}
		if fresh {
			p.MT4FreshMS = best
		} else {
			p.MT4CowMS = best
		}
	}

	// COW divergence cost vs file size: Clone a world holding one large
	// file, then write 4 KiB into the clone. Extent-backed storage keeps
	// the two sizes comparable (only the touched block is copied).
	for _, mib := range []int{1, 64} {
		us, err := cloneFirstWriteUS(mib)
		if err != nil {
			return p, fmt.Errorf("clone+first-write %dMiB: %w", mib, err)
		}
		if mib == 1 {
			p.CloneWrite1MiBUS = us
		} else {
			p.CloneWrite64MiBUS = us
		}
	}

	// The backend sweep: one MT2 placement grid re-run under each hermetic
	// backend. DroppedWrite keeps every placement's injection live, so the
	// timing covers ObjectFS whole-object commits and LatencyFS clock
	// charges on real traffic, not no-target short circuits.
	t0 = time.Now()
	if _, _, err := experiments.Tiered([]string{"MT2"}, core.DroppedWrite, experiments.Options{
		Runs: runs, Seed: seed, Jobs: 1,
		Backends: []string{"mem", "object", "latency"},
	}); err != nil {
		return p, fmt.Errorf("tiered backend sweep: %w", err)
	}
	p.TieredBackendSweepMS = time.Since(t0).Milliseconds()

	// The distributed overhead: the same small grid once on the local
	// engine and once through a loopback coordinator with three workers.
	if local, dist, err := measureDistributed(runs, seed); err != nil {
		return p, fmt.Errorf("distributed grid: %w", err)
	} else {
		p.DistributedLocalMS = local
		p.Distributed3WorkerMS = dist
	}

	if p.MT2HarnessOverheadPct, err = harnessOverheadPct(seed); err != nil {
		return p, fmt.Errorf("harness overhead: %w", err)
	}

	// The runs-saved counter, on the acceptance-criterion cell: MT2 under
	// unreadable-sector converges at the first barrier, so the saving is
	// large and stable; balanced write-model cells would report zero saved
	// at this target (they honestly need more than the budget for ±2%).
	model := core.MustModel("unreadable-sector")
	res, err := experiments.Fig7Cell("MT2", model, experiments.Options{
		Runs: budget, Seed: seed,
		Stop: &stats.StopRule{TargetHalfWidth: target},
	})
	if err != nil {
		return p, fmt.Errorf("adaptive MT2 cell: %w", err)
	}
	spent := res.Tally.Total()
	p.Adaptive = adaptivePoint{
		Cell:            "MT2",
		Model:           model.Name(),
		TargetHalfWidth: target,
		Budget:          budget,
		RunsSpent:       spent,
		RunsSaved:       budget - spent,
	}
	return p, nil
}

// harnessOverheadPct times one 10,000-run MT2 campaign twice on the same
// single-slot engine: event stream fully off (Events nil — emission is
// skipped, not just unobserved), then on with both standard subscribers
// aimed at io.Discard. The percent difference is the whole harness tax a
// -progress -trace invocation pays: event construction, the non-blocking
// publish, queue handoff, rendering, and JSON encoding. The run count is
// fixed at paper scale rather than tied to -runs so the committed metric
// is comparable across points.
func harnessOverheadPct(seed uint64) (float64, error) {
	const overheadRuns = 10_000
	w, err := experiments.NewWorkload("MT2", experiments.Options{})
	if err != nil {
		return 0, err
	}
	run := func(bus *core.EventBus) (int64, error) {
		t0 := time.Now()
		grid := (&core.Engine{Jobs: 1, Events: bus}).Run([]core.CampaignSpec{{
			Key:      "MT2/overhead",
			Workload: w,
			Config:   core.CampaignConfig{Fault: core.Config{Model: core.BitFlip}, Runs: overheadRuns, Seed: seed},
		}})
		if grid[0].Err != nil {
			return 0, grid[0].Err
		}
		if bus != nil {
			bus.Close() // flush before stopping the clock: the tax includes delivery
		}
		return time.Since(t0).Milliseconds(), nil
	}
	plainMS, err := run(nil)
	if err != nil {
		return 0, err
	}
	bus := core.NewEventBus()
	bus.Subscribe(0, progress.Renderer(io.Discard))
	trace, _ := progress.WriteTrace(io.Discard) // io.Discard never fails a write
	bus.Subscribe(4096, trace)
	withMS, err := run(bus)
	if err != nil {
		return 0, err
	}
	pct := float64(withMS-plainMS) / float64(plainMS) * 100
	return math.Round(pct*10) / 10, nil
}

// measureDistributed times one small MT1 grid (three fault models) run
// locally against the same grid run through a campaignd coordinator with
// three in-process workers over loopback HTTP. Both paths go through the
// same canonical spec builder, so the difference is pure protocol
// overhead: leasing, heartbeats, batched uploads, strict-order ingest and
// canonical re-marshal on the coordinator.
func measureDistributed(runs int, seed uint64) (localMS, distMS int64, err error) {
	var specs []experiments.WireSpec
	for _, model := range []string{"bit-flip", "shorn-write", "dropped-write"} {
		specs = append(specs, experiments.WireSpec{Cell: "MT1", Model: model, Runs: runs, Seed: seed})
	}
	man, err := campaignd.ManifestFor(specs)
	if err != nil {
		return 0, 0, err
	}

	localDir, err := os.MkdirTemp("", "benchgrid-local-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(localDir)
	st, err := results.Create(localDir, man)
	if err != nil {
		return 0, 0, err
	}
	cspecs := make([]core.CampaignSpec, len(specs))
	for i, ws := range specs {
		if cspecs[i], err = ws.CampaignSpec(); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	grid, err := results.RunGrid(&core.Engine{Jobs: 1}, st, results.Shard{}, cspecs)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range grid {
		if r.Err != nil {
			return 0, 0, fmt.Errorf("local %s: %w", r.Spec.Key, r.Err)
		}
	}
	localMS = time.Since(t0).Milliseconds()

	distDir, err := os.MkdirTemp("", "benchgrid-dist-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(distDir)
	dst, err := results.Create(distDir, man)
	if err != nil {
		return 0, 0, err
	}
	coord, err := campaignd.NewCoordinator(dst, specs, time.Minute)
	if err != nil {
		return 0, 0, err
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	t0 = time.Now()
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range errs {
		w := &campaignd.Worker{
			ID:          fmt.Sprintf("bench-w%d", i+1),
			Coordinator: srv.URL,
			Jobs:        1,
			Poll:        10 * time.Millisecond,
			Heartbeat:   100 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			return 0, 0, fmt.Errorf("worker %d: %w", i+1, werr)
		}
	}
	if !coord.Done() {
		return 0, 0, fmt.Errorf("distributed grid did not complete")
	}
	distMS = time.Since(t0).Milliseconds()
	return localMS, distMS, nil
}

// cloneFirstWriteUS times MemFS.Clone plus one 4 KiB write on the clone,
// averaged over enough iterations to be stable at microsecond scale.
func cloneFirstWriteUS(mib int) (int64, error) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/big", make([]byte, mib<<20)); err != nil {
		return 0, err
	}
	buf := make([]byte, 4096)
	const iters = 64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		c := fs.Clone()
		f, err := c.Append("/big")
		if err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Microseconds() / iters, nil
}

// loadPoints reads the JSON point array at path as raw messages. A missing
// file returns the os.IsNotExist error with a nil slice.
func loadPoints(path string) ([]json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prior []json.RawMessage
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil, fmt.Errorf("benchgrid: %s is not a JSON array of points: %w", path, err)
	}
	return prior, nil
}

// appendPoint appends p to the JSON array at path, creating the file if
// absent. Prior points pass through as raw JSON so points written under an
// older schema are preserved rather than re-parsed and stripped.
func appendPoint(path string, p point) error {
	prior, err := loadPoints(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	enc, err := json.Marshal(p)
	if err != nil {
		return err
	}
	prior = append(prior, enc)

	out, err := json.MarshalIndent(prior, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
