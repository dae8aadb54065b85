package ltp_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// TestHashStableAcrossFieldOrder decodes the same request from JSON
// bodies with reordered fields — the shape an HTTP client controls —
// and requires identical hashes.
func TestHashStableAcrossFieldOrder(t *testing.T) {
	a := `{"Scenario":"hashjoin","Seed":7,"Scale":0.5,"MaxInsts":50000,"UseLTP":true}`
	b := `{"UseLTP":true,"MaxInsts":50000,"Scale":0.5,"Seed":7,"Scenario":"hashjoin"}`
	var sa, sb ltp.RunSpec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("field order perturbed the hash:\n%s\n%s", ha, hb)
	}
	if !strings.HasPrefix(ha, "rs3:") {
		t.Fatalf("hash %q missing version prefix", ha)
	}
}

// TestHashNormalizesDefaults holds the canonicalization contract:
// zero/nil defaults and their explicit spellings hash identically, and
// ignored fields cannot perturb the hash.
func TestHashNormalizesDefaults(t *testing.T) {
	hash := func(s ltp.RunSpec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	base := ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000}

	// nil Pipeline == explicit DefaultConfig.
	pcfg := pipeline.DefaultConfig()
	if got, want := hash(ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000, Pipeline: &pcfg}), hash(base); got != want {
		t.Errorf("nil vs default Pipeline hash differs")
	}

	// Scale 0 == Scale 1.0.
	if got, want := hash(ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000, Scale: 1.0}), hash(base); got != want {
		t.Errorf("Scale 0 vs 1.0 hash differs")
	}

	// Scenario fields are ignored (and must not perturb) under a named
	// workload; so is LTP config without UseLTP.
	lcfg := core.DefaultConfig()
	noisy := base
	noisy.Seed = 99
	noisy.Knobs = &workload.Knobs{Stride: 7}
	noisy.LTP = &lcfg
	noisy.Oracle = true
	if got, want := hash(noisy), hash(base); got != want {
		t.Errorf("ignored fields perturbed the hash")
	}

	// nil Knobs == explicitly resolved family defaults.
	fam, err := ltp.ScenarioByName("ptrchase")
	if err != nil {
		t.Fatal(err)
	}
	resolved := fam.Resolve(nil)
	sNil := ltp.RunSpec{Scenario: "ptrchase", MaxInsts: 50_000}
	sRes := ltp.RunSpec{Scenario: "ptrchase", MaxInsts: 50_000, Knobs: &resolved}
	if hash(sNil) != hash(sRes) {
		t.Errorf("nil knobs vs resolved defaults hash differs")
	}

	// WarmMode is irrelevant without a warm region.
	warmless := base
	warmless.WarmMode = ltp.WarmDetailed
	if hash(warmless) != hash(base) {
		t.Errorf("WarmMode perturbed the hash of a warmless run")
	}

	// ...but distinguishing fields must distinguish.
	for name, s := range map[string]ltp.RunSpec{
		"workload": {Workload: "compute", MaxInsts: 50_000},
		"insts":    {Workload: "indirect", MaxInsts: 60_000},
		"ltp":      {Workload: "indirect", MaxInsts: 50_000, UseLTP: true},
		"scale":    {Workload: "indirect", MaxInsts: 50_000, Scale: 0.5},
	} {
		if hash(s) == hash(base) {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

// TestCanonicalFixedPoint holds that Canonical is idempotent — in
// particular for resolved BranchEntropy 0, whose literal-zero spelling
// would re-merge to the family default on a second resolution.
func TestCanonicalFixedPoint(t *testing.T) {
	specs := []ltp.RunSpec{
		{Scenario: "branchy", MaxInsts: 50_000, Knobs: &workload.Knobs{BranchEntropy: -1}},
		{Scenario: "hashjoin", MaxInsts: 50_000},
		{Workload: "indirect", MaxInsts: 50_000},
	}
	for _, s := range specs {
		c1, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		c2, err := c1.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		h1, _ := c1.Hash()
		h2, _ := c2.Hash()
		ho, _ := s.Hash()
		if h1 != h2 || h1 != ho {
			t.Errorf("%s/%s: canonical not a fixed point: %s vs %s vs %s",
				s.Workload, s.Scenario, ho, h1, h2)
		}
		if c1.Scenario != "" && c1.Knobs.BranchEntropy == 0 {
			t.Errorf("%s: canonical knobs carry literal entropy 0 (would re-merge to the family default)", c1.Scenario)
		}
	}

	// Entropy 0 and the family default must stay distinct cells.
	zero := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 50_000, Knobs: &workload.Knobs{BranchEntropy: -1}}
	def := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 50_000}
	hz, _ := zero.Hash()
	hd, _ := def.Hash()
	if hz == hd {
		t.Error("entropy-0 spec hashes like the family default")
	}
}

// TestHashRejectsNonCanonical documents which specs have no content
// address.
func TestHashRejectsNonCanonical(t *testing.T) {
	if _, err := (ltp.RunSpec{}).Hash(); err == nil {
		t.Error("empty spec hashed")
	}
	if _, err := (ltp.RunSpec{Workload: "nosuch"}).Hash(); err == nil {
		t.Error("unknown workload hashed")
	}
	if _, err := (ltp.RunSpec{Scenario: "nosuch"}).Hash(); err == nil {
		t.Error("unknown scenario hashed")
	}
	if _, err := (ltp.RunSpec{ReplayFrom: strings.NewReader("x")}).Hash(); err == nil {
		t.Error("replay spec hashed")
	}
}

// TestMatrixHash checks the campaign-level canonicalization: empty
// axes equal their explicit defaults.
func TestMatrixHash(t *testing.T) {
	a := ltp.MatrixSpec{Scale: 0.05, DetailInsts: 8_000}
	b := ltp.MatrixSpec{
		Scenarios:   nil,
		Configs:     ltp.DefaultMatrixConfigs(),
		Seeds:       3,
		Scale:       0.05,
		DetailInsts: 8_000,
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent matrix specs hash differently:\n%s\n%s", ha, hb)
	}
	c := a
	c.Seeds = 5
	hc, _ := c.Hash()
	if hc == ha {
		t.Fatal("seed-count change did not change the matrix hash")
	}
	if _, err := (ltp.MatrixSpec{Scenarios: []string{"nosuch"}}).Hash(); err == nil {
		t.Fatal("unknown scenario in matrix hashed")
	}
}
