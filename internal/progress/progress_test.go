package progress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
)

func TestWireBothSinksOffIsNilBus(t *testing.T) {
	bus, finish, err := Wire(nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if bus != nil {
		t.Fatal("Wire with no sinks returned a live bus; event emission must stay off")
	}
	if err := finish(); err != nil {
		t.Fatalf("finish = %v", err)
	}
}

// runCampaign feeds r the event sequence of one campaign of total runs.
func runCampaign(r func(core.Event), key string, total int) {
	r(core.Event{Kind: core.EventSpecStart, Key: key, Total: total, Runs: total})
	for done := 1; done <= total; done++ {
		r(core.Event{Kind: core.EventRunDone, Key: key, Index: done - 1, Done: done, Total: total})
	}
}

func TestRendererPrintsAboutTenLinesPerCampaign(t *testing.T) {
	for _, tc := range []struct{ total, lines int }{
		{1000, 9}, // every 100th run, the last one left to the done line
		{100, 9},
		{25, 12}, // step 2
		{7, 6},   // fewer runs than lines: every run but the last
		{1, 0},
	} {
		var out bytes.Buffer
		runCampaign(renderer(&out), "c", tc.total)
		got := strings.Count(out.String(), "\n")
		if got != tc.lines {
			t.Errorf("total %d: %d progress lines, want %d:\n%s", tc.total, got, tc.lines, out.String())
		}
	}
	var out bytes.Buffer
	runCampaign(renderer(&out), "nyx/BF", 100)
	if first := strings.SplitN(out.String(), "\n", 2)[0]; first != "[nyx/BF] 10/100" {
		t.Fatalf("first progress line = %q", first)
	}
}

func TestRendererStopDoneAndErrorLines(t *testing.T) {
	var tally classify.Tally
	tally.Add(classify.Benign)
	tally.Add(classify.SDC)
	var out bytes.Buffer
	r := renderer(&out)
	r(core.Event{Kind: core.EventBarrier, Key: "a", Barrier: 50, Done: 50})
	r(core.Event{Kind: core.EventStopDecision, Key: "a", StopIndex: 50, Stopped: false})
	r(core.Event{Kind: core.EventStopDecision, Key: "a", StopIndex: 100, Stopped: true})
	r(core.Event{Kind: core.EventSpecDone, Key: "a", Done: 100, Total: 100,
		Result: &core.CampaignResult{Tally: tally}})
	r(core.Event{Kind: core.EventSpecDone, Key: "b", Err: core.ErrNoTargets})
	want := strings.Join([]string{
		"[a] adaptive stop at run 100",
		"[a] 100/100 done: " + tally.String(),
		"[b] error: " + core.ErrNoTargets.Error(),
	}, "\n") + "\n"
	if out.String() != want {
		t.Fatalf("renderer output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// fullEvent populates every Event field, so a trace line that leaks a
// field its kind does not own shows up as an extra key.
func fullEvent(kind core.EventKind) core.Event {
	var tally classify.Tally
	tally.Add(classify.Detected)
	return core.Event{
		Kind: kind, Key: "k",
		Done: 3, Total: 4, Runs: 5, ProfileCount: 6,
		Index: 7, Target: 8, Outcome: classify.SDC, Fired: true,
		CloneMicros: 9, WorkloadNanos: 10, ClassifyMicros: 11, SimNanos: 12,
		Barrier: 13, StopIndex: 14, Stopped: true,
		Result: &core.CampaignResult{Tally: tally, StopIndex: 15},
	}
}

func TestWriteTraceFieldsPerKind(t *testing.T) {
	failed := fullEvent(core.EventSpecDone)
	failed.Result, failed.Err = nil, errors.New("boom")
	cases := []struct {
		ev   core.Event
		keys string
	}{
		{fullEvent(core.EventSpecStart), "event key profile_count runs total"},
		{fullEvent(core.EventRunDone), "classify_us clone_us done event fired index key outcome sim_ns target total workload_ns"},
		{fullEvent(core.EventBarrier), "barrier done event key"},
		{fullEvent(core.EventStopDecision), "done event key stop_index stopped"},
		{fullEvent(core.EventSpecDone), "done event key stop_index tally total"},
		{failed, "done error event key total"},
	}
	var buf bytes.Buffer
	sub, encErr := writeTrace(&buf)
	for _, tc := range cases {
		sub(tc.ev)
	}
	if err := encErr(); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d does not parse: %v", len(lines), err)
		}
		lines = append(lines, line)
	}
	if len(lines) != len(cases) {
		t.Fatalf("%d trace lines, want %d", len(lines), len(cases))
	}
	for i, line := range lines {
		keys := make([]string, 0, len(line))
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != cases[i].keys {
			t.Errorf("%s line keys = %q, want %q", cases[i].ev.Kind, got, cases[i].keys)
		}
		if line["event"] != string(cases[i].ev.Kind) {
			t.Errorf("line %d event = %v, want %s", i, line["event"], cases[i].ev.Kind)
		}
	}
	// Values, not just presence: JSON numbers decode as float64.
	if run := lines[1]; run["target"] != 8.0 || run["outcome"] != classify.SDC.String() || run["workload_ns"] != 10.0 {
		t.Errorf("run_done line = %v", run)
	}
	if done := lines[4]; !reflect.DeepEqual(done["tally"], map[string]any{classify.Detected.String(): 1.0}) || done["stop_index"] != 15.0 {
		t.Errorf("spec_done line = %v", done)
	}
	if lines[5]["error"] != "boom" {
		t.Errorf("failed spec_done line = %v", lines[5])
	}
}

func TestWireTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var progress bytes.Buffer
	bus, finish, err := Wire(&progress, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCampaign(bus.Publish, "c", 20)
	bus.Publish(fullEvent(core.EventSpecDone))
	if err := finish(); err != nil {
		t.Fatalf("finish = %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 22 {
		t.Fatalf("trace has %d lines, want 22 (start, 20 runs, done)", n)
	}
	if !strings.Contains(progress.String(), "[c] 2/20") {
		t.Fatalf("progress output missing: %q", progress.String())
	}
}

// TestWireReportsTraceWriteError: a trace that cannot be written must not
// pass for complete. /dev/full accepts the open and fails every write, as
// a full disk does.
func TestWireReportsTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bus, finish, err := Wire(nil, "/dev/full", nil)
	if err != nil {
		t.Fatal(err)
	}
	bus.Publish(fullEvent(core.EventSpecStart))
	bus.Publish(fullEvent(core.EventSpecDone))
	if err := finish(); err == nil {
		t.Fatal("finish reported success for a trace that was never written")
	}
}
