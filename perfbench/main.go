// Command perfbench is the FFIS benchmark. It runs one workload in
// closed-loop rounds for a fixed time, checks the campaigns' outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a second, tapped pass over the same rounds) with the result as one
// JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig7 --seed 2021 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, metrics and checks.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed the pinned tallies were recorded at.
const defaultSeed = 2021

//go:embed pinned.json
var pinnedJSON []byte

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports in its result.
// ok_share is 1 − fail_share, stated so that it is never 0. The human
// table also prints fail_share and run_ms_p99; the latter is too noisy on
// a shared 2-CPU host to bound, so the result carries it only as the
// per-layer core.run_ms_p99.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s"},
	{"setup_s", "s"},
	{"run_ms_p50", "ms"},
	{"cpu_ms_per_run", "ms"},
	{"alloc_mb_per_run", "MB"},
	{"ok_share", "share"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// roundSeed derives round r's campaign seed from the run's seed: round 0
// runs at the seed itself, later rounds at splitmix64 steps from it.
func roundSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	z := seed + uint64(r)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// setupReps is how many times fig7 and readwrite are set up in a run;
// setup_s is the median. Fleet sets up once per round instead.
const setupReps = 11

func newWorkload(name, out string, t *tap) (w workload, reps int, err error) {
	switch name {
	case "fig7":
		return newFig7(runtime.NumCPU()), setupReps, nil
	case "readwrite":
		return newReadWrite(), setupReps, nil
	case "fleet":
		f, err := newFleet(filepath.Join(out, "fleet"), fleetRuns, t)
		return f, 1, err
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want fig7, readwrite or fleet)", name)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "fig7", "workload: fig7, readwrite or fleet")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds (with -trace 1, half for the untraced rounds and their traced replay each)")
	trace := flag.Int("trace", 0, "1 runs the rounds again with the layer taps on and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for campaign stores and the trace file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fatal(err)
	}
	h := fingerprint()
	hj, _ := json.Marshal(h)
	fmt.Printf("# host %s\n", hj)

	t := newTap()
	w, reps, err := newWorkload(*name, *out, t)
	if err != nil {
		return fatal(err)
	}
	defer w.close()

	traced := *trace == 1
	if traced {
		reps = 1
	}
	var setups []float64
	setUp := func() error {
		// Each set-up starts from a collected heap, as in a fresh process,
		// so that no set-up pays for the garbage of the one before.
		runtime.GC()
		d, err := w.prepare(*seed, t)
		setups = append(setups, d.Seconds())
		return err
	}
	if traced {
		t.phase.Store(phaseSetup)
	}
	if err := setUp(); err != nil {
		return fatal(err)
	}
	t.phase.Store(phaseOff)

	// A traced run spends half its time on the untraced rounds and about
	// as much again replaying them with the taps on.
	budget := time.Duration(*seconds) * time.Second
	if traced {
		budget /= 2
	}
	var plain, tapped []roundResult
	var measured time.Duration
	for r := 0; measured < budget; r++ {
		// The remaining set-ups are spread evenly over the measured window,
		// so that setup_s samples the host in the same states the rounds do.
		if len(setups) < reps && measured >= budget*time.Duration(len(setups))/time.Duration(reps) {
			if err := setUp(); err != nil {
				return fatal(err)
			}
		}
		rr, err := w.round(roundSeed(*seed, r), t, false)
		if err != nil {
			return fatal(err)
		}
		plain = append(plain, rr)
		measured += rr.use.wall
	}
	if traced {
		t.phase.Store(phaseRuns)
		for r := range plain {
			t.round.Store(int32(r))
			rr, err := w.round(roundSeed(*seed, r), t, true)
			if err != nil {
				return fatal(err)
			}
			tapped = append(tapped, rr)
		}
		t.phase.Store(phaseOff)
	}

	problems := check(*name, *seed, plain, tapped)
	s := summarize(plain)
	if len(s.roundSetups) > 0 {
		setups = s.roundSetups
	}
	res := result{Correct: len(problems) == 0, Metrics: map[string]value{}}
	for _, rr := range append(plain, tapped...) {
		res.Attempted += rr.runs
		res.Failed += rr.failed
	}
	fmt.Printf("# workload %s seed %d rounds %d runs %d measured %.2fs trace %d\n",
		*name, *seed, len(plain), s.runs, s.use.wall.Seconds(), *trace)
	if !traced {
		e2e := endToEndValues(plain, s, setups)
		fmt.Printf("  %-18s %14.6g %s   (%d samples)\n", "fail_share", per(float64(s.runs-s.done), float64(s.runs)), "share", s.runs)
		fmt.Printf("  %-18s %14.6g %s   (not in the result: see README)\n", "run_ms_p99", p99OverBlocks(plain), "ms")
		for _, m := range endToEnd {
			fmt.Printf("  %-18s %14.6g %s\n", m.name, e2e[m.name], m.unit)
			res.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
		fmt.Printf("  (medians over %d rounds of %d runs in all; run_ms_p99 over blocks of %d+ runs; setup_s over %d set-ups)\n", len(plain), len(s.latMs), blockRuns, len(setups))
	} else {
		probes, err := runProbes(*seed)
		if err != nil {
			return fatal(err)
		}
		printLedger(t, tapped)
		layers := perLayerValues(t, plain, tapped, probes)
		for _, m := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", m.name, layers[m.name], m.unit)
			res.Metrics[m.name] = value{layers[m.name], m.unit}
		}
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := writeTrace(path, h, *name, *seed, *seconds, t, tapped); err != nil {
			return fatal(err)
		}
		fmt.Printf("# trace %s\n", path)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(rj))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndValues derives the end-to-end metrics of the untraced rounds.
// Per-round figures are medians across rounds.
func endToEndValues(plain []roundResult, s summary, setups []float64) map[string]float64 {
	done := func(rr roundResult) float64 { return float64(rr.runs - rr.failed) }
	return map[string]float64{
		"runs_per_s": medianOver(plain, func(rr roundResult) float64 { return per(done(rr), rr.use.wall.Seconds()) }),
		"setup_s":    median(setups),
		"run_ms_p50": medianOver(plain, func(rr roundResult) float64 { return quantile(latencies(rr.events), 0.50) }),
		"cpu_ms_per_run": medianOver(plain, func(rr roundResult) float64 {
			return per(float64(rr.use.cpu.Microseconds())/1e3, done(rr))
		}),
		"alloc_mb_per_run": medianOver(plain, func(rr roundResult) float64 { return per(float64(rr.use.allocBytes)/1e6, done(rr)) }),
		"ok_share":         per(float64(s.done), float64(s.runs)),
	}
}

// per divides, reporting 0 for an empty denominator.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// check runs the output checks: every round's own checks (each spec's
// tally sums to its runs; the fleet store matches the in-memory run), the
// pinned tallies at the default seed, and traced rounds matching untraced
// ones.
func check(name string, seed uint64, plain, tapped []roundResult) []string {
	var problems []string
	for _, rr := range append(plain, tapped...) {
		problems = append(problems, rr.problems...)
	}
	if seed == defaultSeed && len(plain) > 0 {
		var pins map[string]tallies
		if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
			problems = append(problems, fmt.Sprintf("pinned.json: %v", err))
		} else {
			diff := diffTallies("pinned", pins[name], "round 0", plain[0].tallies)
			if len(diff) > 0 {
				// Round 0's tallies as pinned.json holds them, to refresh
				// the pins after a change that is meant to move them.
				pj, _ := json.MarshalIndent(map[string]tallies{name: plain[0].tallies}, "", "  ")
				diff = append(diff, "round 0 tallies: "+string(pj))
			}
			problems = append(problems, diff...)
		}
	}
	for r, rr := range tapped {
		problems = append(problems, diffTallies(fmt.Sprintf("untraced round %d", r), plain[r].tallies,
			fmt.Sprintf("traced round %d", r), rr.tallies)...)
	}
	return problems
}

func diffTallies(aName string, a tallies, bName string, b tallies) []string {
	var out []string
	if len(a) == 0 {
		return []string{fmt.Sprintf("%s tallies are missing", aName)}
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || bv != av {
			out = append(out, fmt.Sprintf("%s: %s has %v, %s has %v", k, aName, av, bName, bv))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: only %s has it", k, bName))
		}
	}
	return out
}

// medianOver is the median across rounds of a per-round figure, which
// keeps a round disturbed by the rest of the machine from moving it.
func medianOver(rounds []roundResult, f func(roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rr := range rounds {
		xs[i] = f(rr)
	}
	return median(xs)
}

// blockRuns is the least number of runs a run_ms_p99 block holds: enough
// that ten runs lie beyond its 99th percentile.
const blockRuns = 1000

// p99OverBlocks is the median of the run-latency 99th percentiles of
// consecutive blocks of rounds, each holding at least blockRuns runs. Runs
// after the last full block are left out, unless no block filled. One
// disturbed block cannot move it.
func p99OverBlocks(rounds []roundResult) float64 {
	var p99s, block []float64
	for i, rr := range rounds {
		block = append(block, latencies(rr.events)...)
		if len(block) >= blockRuns || (i == len(rounds)-1 && len(p99s) == 0) {
			p99s = append(p99s, quantile(block, 0.99))
			block = nil
		}
	}
	return median(p99s)
}

// latencies returns the run latencies of events in ms.
func latencies(events []runEvent) []float64 {
	out := make([]float64, len(events))
	for i, ev := range events {
		out[i] = float64(ev.latencyNs()) / 1e6
	}
	return out
}

// summary aggregates a phase's rounds.
type summary struct {
	use         usage
	runs, done  int
	latMs       []float64
	cloneUs     []float64
	fired       int
	busyNs      int64
	dropped     map[string]int64
	roundSetups []float64
	storeBytes  int64
}

func summarize(rounds []roundResult) summary {
	s := summary{dropped: map[string]int64{}}
	for _, rr := range rounds {
		s.use.add(rr.use)
		s.runs += rr.runs
		s.done += rr.runs - rr.failed
		s.latMs = append(s.latMs, latencies(rr.events)...)
		for _, ev := range rr.events {
			s.cloneUs = append(s.cloneUs, float64(ev.CloneUs))
			s.busyNs += ev.latencyNs()
			if ev.Fired {
				s.fired++
			}
		}
		for k, n := range rr.dropped {
			s.dropped[k] += n
		}
		if rr.setup > 0 {
			s.roundSetups = append(s.roundSetups, rr.setup.Seconds())
		}
		s.storeBytes += rr.storeBytes
	}
	return s
}
