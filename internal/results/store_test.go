package results

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
)

func TestEncodeKeyInjectiveAndFilesystemSafe(t *testing.T) {
	keys := []string{"nyx/BF", "nyx%2FBF", "MT2.tiered/SW", "a b", "a/b/c", "a_b-c.d"}
	seen := map[string]string{}
	for _, k := range keys {
		enc := encodeKey(k)
		if strings.ContainsAny(enc, "/\\ ") {
			t.Errorf("encodeKey(%q) = %q contains unsafe bytes", k, enc)
		}
		if prev, dup := seen[enc]; dup {
			t.Errorf("collision: %q and %q both encode to %q", prev, k, enc)
		}
		seen[enc] = k
	}
}

func TestParseSpecFileTornTailRecovery(t *testing.T) {
	header := `{"ffis_records":1,"workload":"w","model":"bit-flip","primitive":"write","feature":{"flip_bits":2,"shorn_keep_num":7,"shorn_keep_den":8,"sector_size":512,"block_size":4096},"profile_count":8,"runs":4,"seed":1}` + "\n"
	rec0 := `{"index":0,"target":3,"outcome":"benign"}` + "\n"
	rec1 := `{"index":1,"target":5,"outcome":"SDC"}` + "\n"

	cases := []struct {
		name     string
		raw      string
		records  int
		validLen int
	}{
		{"complete", header + rec0 + rec1, 2, len(header) + len(rec0) + len(rec1)},
		{"torn no newline", header + rec0 + `{"index":1,"tar`, 1, len(header) + len(rec0)},
		{"torn garbage line", header + rec0 + "garbage}\n", 1, len(header) + len(rec0)},
		{"torn header", `{"ffis_rec`, 0, 0},
		{"empty", "", 0, 0},
	}
	for _, c := range cases {
		sf, err := parseSpecFile([]byte(c.raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(sf.records) != c.records {
			t.Errorf("%s: %d records, want %d", c.name, len(sf.records), c.records)
		}
		if sf.validLen != int64(c.validLen) {
			t.Errorf("%s: validLen %d, want %d", c.name, sf.validLen, c.validLen)
		}
	}

	// A malformed line with well-formed successors is corruption, not a
	// torn tail.
	if _, err := parseSpecFile([]byte(header + "garbage}\n" + rec1)); err == nil {
		t.Fatal("mid-file corruption must fail the parse")
	}
	// Out-of-order records can only come from a buggy writer.
	if _, err := parseSpecFile([]byte(header + rec1 + rec0)); err == nil {
		t.Fatal("out-of-order records must fail the parse")
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Manifest{Seed: 1, Runs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Manifest{Seed: 1, Runs: 2}); err == nil {
		t.Fatal("Create must refuse a directory that already holds a store")
	}
}

func TestCreateOrResumeValidatesParameters(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Manifest{Seed: 7, Runs: 50, Shard: "0/2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateOrResume(dir, true, Manifest{Seed: 7, Runs: 50, Shard: "0/2"}); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	for _, bad := range []Manifest{
		{Seed: 8, Runs: 50, Shard: "0/2"},
		{Seed: 7, Runs: 51, Shard: "0/2"},
		{Seed: 7, Runs: 50, Shard: "1/2"},
		{Seed: 7, Runs: 50},
	} {
		if _, err := CreateOrResume(dir, true, bad); err == nil {
			t.Fatalf("resume with drifted parameters %+v must be rejected", bad)
		}
	}
}

func TestParseShard(t *testing.T) {
	if s, err := ParseShard(""); err != nil || s != (Shard{}) {
		t.Fatalf("empty shard: %v %v", s, err)
	}
	s, err := ParseShard("1/4")
	if err != nil || s.Index != 1 || s.Count != 4 {
		t.Fatalf("1/4: %+v %v", s, err)
	}
	if s.Owns(0) || !s.Owns(1) || !s.Owns(5) {
		t.Fatal("shard 1/4 ownership wrong")
	}
	for _, bad := range []string{"x", "2/2", "-1/2", "1/0", "1", "1/2/3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) must fail", bad)
		}
	}
}

func TestBeginCampaignValidatesResumeHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.CampaignMeta{
		Workload:     "eq",
		Signature:    core.Config{Model: core.MustModel("bit-flip")}.Signature(),
		ProfileCount: 8,
		Runs:         eqRuns,
		Seed:         eqSeed,
	}
	sink, err := st.SpecSink("eq/BF", eqRuns, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.BeginCampaign(meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.Record(core.RunRecord{Index: 0, Target: 1, Outcome: classify.Benign}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := st.SpecSink("eq/BF", eqRuns, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.BeginCampaign(meta); err != nil {
		t.Fatalf("identical campaign must resume: %v", err)
	}
	resumed.Close()

	drifted, err := st.SpecSink("eq/BF", eqRuns, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	bad := meta
	bad.ProfileCount = 9 // a different world: stored targets are meaningless
	if err := drifted.BeginCampaign(bad); err == nil {
		t.Fatal("resume with a drifted profile count must be rejected")
	}
	drifted.Close()
}

func TestMergeRejectsOverlapAndUnfinishedShards(t *testing.T) {
	s0, s1 := t.TempDir(), t.TempDir()
	runGridInto(t, s0, 2, Shard{Index: 0, Count: 2})
	runGridInto(t, s1, 2, Shard{Index: 0, Count: 2}) // same shard twice: overlap

	if err := Merge(filepath.Join(t.TempDir(), "m"), s0, s1); err == nil ||
		!strings.Contains(err.Error(), "more than one source") {
		t.Fatalf("overlapping shards must fail the merge, got %v", err)
	}

	// An unfinalized partial in a source must abort the merge rather than
	// bake a gap into the merged file.
	s2 := t.TempDir()
	st, err := Create(s2, Manifest{Seed: eqSeed, Runs: eqRuns, Shard: "1/2"})
	if err != nil {
		t.Fatal(err)
	}
	spec := eqSpecs()[0]
	sink, err := st.SpecSink(spec.Key, eqRuns, Shard{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config
	cfg.Sink = sink
	cfg.RunFilter = func(idx int) bool { return sink.Include(idx) && idx < eqRuns/2 }
	if _, err := core.Campaign(cfg, spec.Workload); err != nil {
		t.Fatal(err)
	}
	sink.Close() // partial, never finalized
	if err := Merge(filepath.Join(t.TempDir(), "m2"), s0, s2); err == nil ||
		!strings.Contains(err.Error(), "unfinalized") {
		t.Fatalf("merge over an unfinished shard must fail, got %v", err)
	}
}

func TestReportFormats(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 4, Shard{})
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	text, err := Report(st, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "eq/BF") || !strings.Contains(text, "eq/DW") ||
		!strings.Contains(text, "Stored campaign results (2 specs, 30 runs per cell, seed 42)") {
		t.Fatalf("text report:\n%s", text)
	}

	csv, err := Report(st, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "label,runs,") || !strings.Contains(csv, "eq/BF,30,") {
		t.Fatalf("csv report:\n%s", csv)
	}

	md, err := Report(st, "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| eq/BF | 30 |") {
		t.Fatalf("markdown report:\n%s", md)
	}

	js, err := Report(st, "json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(js), &rows); err != nil {
		t.Fatalf("json report does not parse: %v\n%s", err, js)
	}
	if len(rows) != 2 || rows[0]["workload"] != "eq/BF" || rows[0]["fault_model"] != "bit-flip" {
		t.Fatalf("json rows: %v", rows)
	}

	if _, err := Report(st, "yaml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

// TestReportCallsOutMissingSpecs: specs registered in the manifest but with
// no stored data (starved placements, pre-first-run crashes) appear in the
// human-readable footers instead of vanishing.
func TestReportCallsOutMissingSpecs(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 2, Shard{})
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureSpecs([]string{"eq/ghost"}); err != nil {
		t.Fatal(err)
	}
	text, err := Report(st, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "no stored records") || !strings.Contains(text, "eq/ghost") {
		t.Fatalf("missing specs not called out:\n%s", text)
	}
}

// TestStoredRecordsRoundTrip: the loader reconstructs exactly what the
// in-memory campaign produced — outcomes, targets, mutations, and the
// profile count — from disk alone.
func TestStoredRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	grid := runGridInto(t, dir, 4, Shard{})
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	solo := (&core.Engine{Jobs: 1}).Run([]core.CampaignSpec{{Workload: eqWorkload(), Config: core.CampaignConfig{
		Fault: core.Config{Model: core.MustModel("bit-flip")},
		Runs:  eqRuns, Seed: eqSeed,
	}}})[0]
	mem, err := solo.Result, solo.Err
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Result("eq/BF")
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfileCount != mem.ProfileCount || res.Tally != mem.Tally {
		t.Fatalf("loaded %+v vs in-memory %+v", res.Tally, mem.Tally)
	}
	if len(res.Records) != len(mem.Records) {
		t.Fatalf("%d loaded records vs %d", len(res.Records), len(mem.Records))
	}
	for i, got := range res.Records {
		want := mem.Records[i]
		if got.Index != want.Index || got.Target != want.Target ||
			got.Outcome != want.Outcome || got.Fired != want.Fired {
			t.Fatalf("record %d: loaded %+v, want %+v", i, got, want)
		}
		if got.Fired {
			if got.Mutation.Model == nil || got.Mutation.Model.Name() != want.Mutation.Model.Name() {
				t.Fatalf("record %d: model not reconstructed: %+v", i, got.Mutation)
			}
			if got.Mutation.BitPos != want.Mutation.BitPos || got.Mutation.Offset != want.Mutation.Offset {
				t.Fatalf("record %d: mutation drifted: %+v vs %+v", i, got.Mutation, want.Mutation)
			}
		}
	}
	// And the grid's own returned results came from this same disk state.
	if grid[0].Result.Tally != res.Tally {
		t.Fatal("grid result and loaded result disagree")
	}
}

// TestMergeRejectsIncompleteCoverage: finalizing is the promise that every
// run is persisted, so a merge missing a whole shard (or a spec one shard
// never started) must fail instead of renaming a gapped file.
func TestMergeRejectsIncompleteCoverage(t *testing.T) {
	s0 := t.TempDir()
	runGridInto(t, s0, 2, Shard{Index: 0, Count: 2})
	if err := Merge(filepath.Join(t.TempDir(), "m"), s0); err == nil ||
		!strings.Contains(err.Error(), "covers 15 of 30 runs") {
		t.Fatalf("merging half the shards must fail with a coverage error, got %v", err)
	}
}

// TestRunGridRejectsFinalizedSpecDrift: the finalized fast path must apply
// the same campaign-identity guard the partial-resume path enforces — a
// store answering for a different seed (or model, runs, ...) is an error,
// not a silently stale result.
func TestRunGridRejectsFinalizedSpecDrift(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 2, Shard{})
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	for i := range specs {
		specs[i].Config.Seed = eqSeed + 1
	}
	if _, err := RunGrid(&core.Engine{Jobs: 2}, st, Shard{}, specs); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("finalized specs from a drifted campaign must be rejected, got %v", err)
	}
}

// TestStoreLockExcludesConcurrentWriters: a second writer on the same store
// must fail fast instead of truncating and interleaving the first writer's
// partial files.
func TestStoreLockExcludesConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := st.lock()
	if err != nil {
		t.Skipf("no advisory locks on this platform: %v", err)
	}
	defer unlock()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGrid(&core.Engine{Jobs: 2}, st2, Shard{}, eqSpecs()); err == nil ||
		!strings.Contains(err.Error(), "another process") {
		t.Fatalf("second writer must be excluded, got %v", err)
	}
}
