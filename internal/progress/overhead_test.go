package progress

import (
	"io"
	"testing"
	"time"

	"ffis/internal/core"
	"ffis/internal/experiments"
)

// TestHarnessOverheadUnderTenPercent bounds what the standard CLI event
// wiring (-progress plus -trace) adds to an injection run, measured
// directly in one process: the wall time per published RunDone with the
// line renderer and the trace writer both subscribed, against the mean
// cost of one MT2 bit-flip run. Each run publishes one RunDone, so the
// ratio is the share of a run the harness takes. The ceiling is 10%.
func TestHarnessOverheadUnderTenPercent(t *testing.T) {
	// Publish a burst of RunDone events and flush the bus: the time covers
	// the publisher's side and the delivery to both subscribers.
	const events = 20_000
	bus := core.NewEventBus()
	renderSub := bus.Subscribe(events, renderer(io.Discard))
	trace, encErr := writeTrace(io.Discard)
	traceSub := bus.Subscribe(events, trace)
	ev := fullEvent(core.EventRunDone)
	ev.Total = events
	t0 := time.Now()
	for i := 0; i < events; i++ {
		ev.Index, ev.Done = i, i+1
		bus.Publish(ev)
	}
	bus.Close()
	perEvent := time.Since(t0) / events
	if err := encErr(); err != nil {
		t.Fatal(err)
	}
	if d := renderSub.Dropped() + traceSub.Dropped(); d != 0 {
		t.Fatalf("%d RunDone events dropped; the buffers must hold the whole burst", d)
	}

	// The mean run cost, from the engine's own per-stage timings: clone,
	// workload and classify, excluding the one-off setup and profile pass.
	const runs = 30
	spec, err := experiments.CellSpec("MT2", core.BitFlip, experiments.Options{Runs: runs, Seed: 2021})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	var done int
	runBus := core.NewEventBus()
	runBus.Subscribe(runs, func(ev core.Event) {
		if ev.Kind == core.EventRunDone {
			total += time.Duration(ev.CloneMicros+ev.ClassifyMicros)*time.Microsecond + time.Duration(ev.WorkloadNanos)
			done++
		}
	})
	grid := (&core.Engine{Jobs: 1, Events: runBus}).Run([]core.CampaignSpec{spec})
	runBus.Close()
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	if done != runs {
		t.Fatalf("saw %d RunDone events, want %d", done, runs)
	}
	perRun := total / runs

	pct := 100 * float64(perEvent) / float64(perRun)
	t.Logf("harness: %v per RunDone; MT2 bit-flip run: %v; overhead %.4f%%", perEvent, perRun, pct)
	if pct > 10 {
		t.Fatalf("harness overhead %.2f%% of a run exceeds the 10%% ceiling (%v per event, %v per run)", pct, perEvent, perRun)
	}
}
