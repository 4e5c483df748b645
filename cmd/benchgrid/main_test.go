package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendPointGrowsArray: appending into a missing file starts a fresh
// one-element array; appending again grows it to two with the first point
// intact.
func TestAppendPointGrowsArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_grid.json")
	first := point{Date: "2026-01-01T00:00:00Z", Go: "go1.24", Runs: 24, Seed: 2021,
		Adaptive: adaptivePoint{Cell: "MT2", Budget: 1000, RunsSpent: 100, RunsSaved: 900}}
	if err := appendPoint(path, first); err != nil {
		t.Fatal(err)
	}
	second := first
	second.Date = "2026-02-01T00:00:00Z"
	second.Fig7EngineMS = 1234
	if err := appendPoint(path, second); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pts []point
	if err := json.Unmarshal(raw, &pts); err != nil {
		t.Fatalf("trajectory is not a point array: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0] != first || pts[1] != second {
		t.Fatalf("points round-tripped wrong:\n  got  %+v\n       %+v\n  want %+v\n       %+v",
			pts[0], pts[1], first, second)
	}
	if pts[0].Adaptive.RunsSaved != 900 {
		t.Fatalf("runs_saved = %d, want 900", pts[0].Adaptive.RunsSaved)
	}
}

// TestAppendPointPreservesUnknownFields: a point written by a newer (or
// older) schema must survive an append untouched apart from re-indentation
// — the trajectory is append-only history, not a normalized table.
func TestAppendPointPreservesUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_grid.json")
	legacy := `[{"date":"2025-12-01T00:00:00Z","exotic_future_metric_ms":42}]`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendPoint(path, point{Date: "2026-01-01T00:00:00Z"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pts []map[string]any
	if err := json.Unmarshal(raw, &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if v, ok := pts[0]["exotic_future_metric_ms"]; !ok || v != float64(42) {
		t.Fatalf("unknown field dropped or mangled: %v", pts[0])
	}
}

// TestAppendPointRejectsNonArray: a corrupt trajectory file must fail the
// append loudly instead of being overwritten.
func TestAppendPointRejectsNonArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_grid.json")
	if err := os.WriteFile(path, []byte(`{"not":"an array"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendPoint(path, point{}); err == nil {
		t.Fatal("appendPoint accepted a non-array file")
	}
	raw, _ := os.ReadFile(path)
	if string(raw) != `{"not":"an array"}` {
		t.Fatalf("corrupt file was modified: %s", raw)
	}
}

// TestCheckRegression: the CI gate compares the fresh point's gated wall
// times against the newest committed entry and tolerates -max-regress.
func TestCheckRegression(t *testing.T) {
	mk := func(engine, cow int64) json.RawMessage {
		raw, err := json.Marshal(point{Fig7EngineMS: engine, MT4CowMS: cow})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := []struct {
		name    string
		prior   []json.RawMessage
		fresh   point
		wantErr bool
	}{
		{"no history", nil, point{Fig7EngineMS: 9999, MT4CowMS: 9999}, false},
		{"within threshold", []json.RawMessage{mk(2000, 70)}, point{Fig7EngineMS: 2500, MT4CowMS: 90}, false},
		{"faster is fine", []json.RawMessage{mk(2000, 70)}, point{Fig7EngineMS: 900, MT4CowMS: 30}, false},
		{"engine regressed", []json.RawMessage{mk(2000, 70)}, point{Fig7EngineMS: 2700, MT4CowMS: 70}, true},
		{"cow regressed", []json.RawMessage{mk(2000, 70)}, point{Fig7EngineMS: 2000, MT4CowMS: 100}, true},
		{"only newest entry gates", []json.RawMessage{mk(100, 5), mk(2000, 70)}, point{Fig7EngineMS: 2500, MT4CowMS: 80}, false},
		{"zero metric in history skipped", []json.RawMessage{mk(0, 0)}, point{Fig7EngineMS: 9999, MT4CowMS: 9999}, false},
		// The harness-overhead gate is an absolute ceiling, enforced even
		// with no history at all, and tolerant of the negative noise an
		// unloaded machine can report.
		{"overhead within ceiling", nil, point{MT2HarnessOverheadPct: 9.9}, false},
		{"overhead negative noise ok", []json.RawMessage{mk(2000, 70)}, point{Fig7EngineMS: 2000, MT4CowMS: 70, MT2HarnessOverheadPct: -1.2}, false},
		{"overhead beyond ceiling", nil, point{MT2HarnessOverheadPct: 10.1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkRegression(tc.prior, tc.fresh, 0.30, 10)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkRegression = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestCheckRegressionReportsEveryFailure: a point that breaks the overhead
// ceiling and regresses a wall time must name both, so fixing one failure
// does not reveal the other only on the next run.
func TestCheckRegressionReportsEveryFailure(t *testing.T) {
	prior := []json.RawMessage{json.RawMessage(`{"fig7_grid_engine_ms": 2000, "mt4_campaign_cow_ms": 70}`)}
	err := checkRegression(prior, point{Fig7EngineMS: 2700, MT4CowMS: 70, MT2HarnessOverheadPct: 10.1}, 0.30, 10)
	if err == nil {
		t.Fatal("two failing metrics passed the gate")
	}
	for _, name := range []string{"mt2_10k_harness_overhead_pct", "fig7_grid_engine_ms"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s:\n%v", name, err)
		}
	}
	if strings.Contains(err.Error(), "mt4_campaign_cow_ms") {
		t.Errorf("error names a metric within its threshold:\n%v", err)
	}
}

// TestCheckRegressionRejectsCorruptHistory: a last entry that does not
// parse must fail the gate loudly rather than passing by default.
func TestCheckRegressionRejectsCorruptHistory(t *testing.T) {
	prior := []json.RawMessage{json.RawMessage(`"not a point"`)}
	if err := checkRegression(prior, point{}, 0.30, 10); err == nil {
		t.Fatal("corrupt history accepted")
	}
}
