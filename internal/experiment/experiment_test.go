package experiment

import (
	"context"
	"strings"
	"testing"

	"ltp"
)

// tinySuite keeps experiment tests fast. Under -short (the CI race gate)
// the budgets shrink further: the shape assertions these tests make hold
// down to a few thousand instructions, and the race detector multiplies
// every simulated cycle's cost.
func tinySuite() *Suite {
	s := NewSuite(0.05, 5_000, 20_000)
	if testing.Short() {
		s = NewSuite(0.05, 2_000, 8_000)
	}
	s.Quiet = true
	return s
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"ROB / IQ / LQ / SQ", "256 / 64 / 64 / 32", "stride prefetcher"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestClassifyStable(t *testing.T) {
	s := tinySuite()
	g1 := s.Classify()
	g2 := s.Classify() // cached
	if len(g1.Sensitive)+len(g1.Insensitive) != 14 {
		t.Errorf("classified %d+%d workloads, want 14",
			len(g1.Sensitive), len(g1.Insensitive))
	}
	if &g1.Detail == nil || len(g2.Sensitive) != len(g1.Sensitive) {
		t.Error("classification not cached/stable")
	}
	// The pure compute kernel can never be MLP-sensitive.
	for _, n := range g1.Sensitive {
		if n == "compute" || n == "divloop" {
			t.Errorf("%s classified MLP-sensitive", n)
		}
	}
	if s.GroupsTable().String() == "" {
		t.Error("empty groups table")
	}
}

func TestFig3Shape(t *testing.T) {
	s := tinySuite()
	tab := s.Fig3()
	if len(tab.Rows) != 2 {
		t.Fatalf("fig3 has %d rows", len(tab.Rows))
	}
	noltp, withltp := tab.Rows[0], tab.Rows[1]
	// With LTP the tiny IQ must hold fewer instructions and the MLP must
	// not be lower.
	if withltp.Cells[2] >= noltp.Cells[2] {
		t.Errorf("LTP did not reduce IQ occupancy: %.2f vs %.2f", withltp.Cells[2], noltp.Cells[2])
	}
	if withltp.Cells[1] < noltp.Cells[1] {
		t.Errorf("LTP lowered MLP: %.2f vs %.2f", withltp.Cells[1], noltp.Cells[1])
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{
		Title: "demo", Cols: []string{"a", "b"},
		Rows:  []RowData{{Label: "x", Cells: []float64{1.5, 2000}}},
		Notes: []string{"n"},
	}
	out := tab.String()
	for _, want := range []string{"demo", "1.50", "2000", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q in %q", want, out)
		}
	}
}

// TestRunAllLPTOrder verifies runAll returns results in submission
// order whatever order the engine runs them in (longest-first), and
// that a job repeated within one call — figures share baselines —
// simulates once and lands in every position that asked for it.
func TestRunAllLPTOrder(t *testing.T) {
	s := tinySuite()
	e, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s.Engine = e
	var jobs []job
	for _, iq := range []int{8, 64, 256} {
		for _, wl := range []string{"compute", "gather"} {
			jobs = append(jobs, job{wlName: wl, pcfg: limitConfig(iq, 128, 64, 32)})
		}
	}
	jobs = append(jobs, jobs[0])
	out := s.runAll(jobs)
	if len(out) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out), len(jobs))
	}
	for i, j := range jobs {
		want, err := ltp.RunContext(context.Background(), s.spec(j))
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Cycles != want.Cycles || out[i].Committed != want.Committed {
			t.Errorf("job %d (%s IQ %d): result misplaced: %d cycles vs %d", i, j.wlName, j.pcfg.IQSize, out[i].Cycles, want.Cycles)
		}
	}
	if st := e.CacheStats(); st.Misses != uint64(len(jobs)-1) {
		t.Errorf("%d jobs with one repeat simulated %d runs; want %d", len(jobs), st.Misses, len(jobs)-1)
	}
}

func TestGeomeanRatio(t *testing.T) {
	if got := geomeanRatio([]float64{2, 8}); got != 4 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if got := geomeanRatio(nil); got != 1 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(64) != "64" || sizeLabel(1<<20) != "inf" {
		t.Error("size labels wrong")
	}
}
