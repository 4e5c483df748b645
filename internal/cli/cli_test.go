package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
)

// parse registers the shared flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Shared {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Register("test", fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSharedFlagRejections pins every cross-flag rejection of the front
// door: its message, its exit status, and that it leaves no store behind.
func TestSharedFlagRejections(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	if _, err := results.Create(store, results.Manifest{Seed: 1, Runs: 1}); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh")
	const needOut = "-resume, -shard, -report, and -merge all operate on a results store; add -out DIR"
	for _, tc := range []struct {
		args []string
		msg  string
		code int
	}{
		{[]string{"-resume"}, needOut, 2},
		{[]string{"-shard", "0/2"}, needOut, 2},
		{[]string{"-report", "text"}, needOut, 2},
		{[]string{"-merge", store}, needOut, 2},
		{[]string{"-adaptive", "0.1", "-shard", "0/2", "-out", fresh},
			"-adaptive cannot run under -shard (a shard never holds a complete run prefix); drop one of them", 2},
		{[]string{"-shard", "3/2", "-out", fresh}, "results: bad shard 3/2 (want 0 <= i < n)", 1},
		{[]string{"-shard", "half", "-out", fresh}, `results: bad shard "half" (want i/n, e.g. 0/4)`, 1},
		{[]string{"-report", "pdf", "-out", store},
			`results: unknown report format "pdf" (want text, csv, json, markdown)`, 1},
	} {
		var out bytes.Buffer
		served, err := parse(t, tc.args...).Serve(&out)
		if served || err == nil {
			t.Errorf("%v: served=%v err=%v, want a rejection", tc.args, served, err)
			continue
		}
		if err.Error() != tc.msg || exitCode(err) != tc.code {
			t.Errorf("%v: got %q (exit %d), want %q (exit %d)", tc.args, err, exitCode(err), tc.msg, tc.code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a rejection printed %q", tc.args, out.String())
		}
		if _, err := os.Stat(fresh); !os.IsNotExist(err) {
			t.Fatalf("%v: a rejected invocation created %s", tc.args, fresh)
		}
	}
}

// TestUsageErrorLeavesTraceUntouched: the trace file is opened only by
// Start, after every usage check and the -merge/-report exits, so neither a
// rejected invocation nor a served report truncates an existing trace.
func TestUsageErrorLeavesTraceUntouched(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.jsonl")
	const keep = "{\"kind\":\"spec_start\"}\n"
	if err := os.WriteFile(tr, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if _, err := results.Create(store, results.Manifest{Seed: 1, Runs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(t, "-resume", "-trace", tr).Serve(io.Discard); exitCode(err) != 2 {
		t.Fatalf("-resume without -out: got %v, want a usage error", err)
	}
	if served, err := parse(t, "-out", store, "-report", "text", "-trace", tr).Serve(io.Discard); !served || err != nil {
		t.Fatalf("-report: served=%v err=%v", served, err)
	}
	if got, err := os.ReadFile(tr); err != nil || string(got) != keep {
		t.Fatalf("trace file changed to %q (%v)", got, err)
	}
}

// invoke drives one MT2 bit-flip campaign through the front door the way
// the commands do — Serve, Start, one spec, Finish — and returns what it
// printed: the served output, or the campaign's CI table.
func invoke(t *testing.T, args ...string) string {
	t.Helper()
	s := parse(t, args...)
	var out bytes.Buffer
	served, err := s.Serve(&out)
	if err != nil {
		t.Fatal(err)
	}
	if served {
		return out.String()
	}
	o, err := s.Start(experiments.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiments.CellSpec("MT2", core.MustModel("bit-flip"), o)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := o.RunGrid(o.Engine, []core.CampaignSpec{spec})
	s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	return classify.TableCI("campaign", []classify.Cell{grid[0].Result.Cell()})
}

// tableRows drops a rendered table's title line and anything after its
// cell rows, leaving the header and rows two renderings must share.
func tableRows(table string) []string {
	lines := strings.Split(table, "\n")
	var rows []string
	for _, l := range lines[1:] {
		if l == "" {
			break
		}
		rows = append(rows, l)
	}
	return rows
}

// TestFrontDoorStoreCycle is the -out/-resume/-report cycle end to end on
// MT2: the table re-rendered from disk equals the one the run printed, and
// resuming the finished store executes nothing.
func TestFrontDoorStoreCycle(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	printed := invoke(t, "-runs", "12", "-seed", "7", "-jobs", "2", "-out", store)
	reported := invoke(t, "-out", store, "-report", "text")
	got, want := tableRows(reported), tableRows(printed)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report from disk:\n%s\ndiffers from the printed table:\n%s", reported, printed)
	}

	tr := filepath.Join(dir, "resume.jsonl")
	resumed := invoke(t, "-runs", "12", "-seed", "7", "-out", store, "-resume", "-trace", tr)
	if resumed != printed {
		t.Fatalf("resumed table:\n%s\ndiffers from the first run:\n%s", resumed, printed)
	}
	events, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("resuming a finished store ran campaigns:\n%s", events)
	}
}

// TestTraceSpecCoversProfile: -iotrace traces the spec the campaign runs,
// so for every read-path model the traced pattern holds at least the
// target-primitive executions the profiling pass counts (the profile skips
// zero-length transfers) — never zero when there is something to strike.
func TestTraceSpecCoversProfile(t *testing.T) {
	o := experiments.Options{Runs: 1, Seed: 2021, NyxN: 24}
	for _, cell := range experiments.ReadWriteCells {
		for _, m := range core.ReadModels() {
			spec, err := experiments.CellSpec(cell, m, o)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := TraceSpec(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Key, err)
			}
			sig := spec.Config.Fault.Signature()
			count, err := core.Profile(spec.Workload, sig)
			if err != nil {
				t.Fatalf("%s: %v", spec.Key, err)
			}
			traced := prof.ByPrim[sig.Primitive]
			if int64(traced) < count || (count > 0 && traced == 0) {
				t.Errorf("%s: traced %d %s executions, profile counts %d", spec.Key, traced, sig.Primitive, count)
			}
			if count == 0 {
				t.Errorf("%s: profile counts no %s executions", spec.Key, sig.Primitive)
			}
		}
	}
}
