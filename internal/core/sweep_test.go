package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteResultsJSON(t *testing.T) {
	res, err := Campaign(CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  5,
		Seed:  1,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, []CampaignResult{res}); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["fault_model"] != "bit-flip" {
		t.Fatalf("model = %v", rows[0]["fault_model"])
	}
	outcomes, ok := rows[0]["outcomes"].(map[string]any)
	if !ok || outcomes["SDC"].(float64) != 5 {
		t.Fatalf("outcomes = %v", rows[0]["outcomes"])
	}
	if rows[0]["sdc_rate"].(float64) != 1.0 {
		t.Fatalf("sdc_rate = %v", rows[0]["sdc_rate"])
	}
}
