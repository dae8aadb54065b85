package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

// TestFigureValuesGolden pins the simulated values of representative
// figures at QuickSuite budgets, byte for byte: Figure 3 (an oracle
// job), the §4.1 classification detail (limit-study configs) and the
// microarchitectural tables, ending with the co-runner contention grid
// (scenario cells with predictor, prefetcher and co-runner axes). Any
// change to how a figure's runs are built, scheduled or deduplicated
// that perturbs a single value fails here. Regenerate deliberately with
//
//	go test ./internal/experiment -run TestFigureValuesGolden -update
func TestFigureValuesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure goldens simulate at QuickSuite budgets")
	}
	s := QuickSuite()
	var b strings.Builder
	b.WriteString(s.Fig3().String())
	b.WriteString(s.GroupsTable().String())
	for _, tab := range s.Microarch() {
		b.WriteString(tab.String())
	}
	got := b.String()

	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("figure values drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
