package bpred

import (
	"reflect"
	"testing"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pc, tgt := uint64(0x1000), uint64(0x2000)
		// Histories must saturate before indices stabilize; train well
		// past that.
		for i := 0; i < 256; i++ {
			p.Lookup(pc, true, tgt)
		}
		if !p.PredictOnly(pc, true, tgt) {
			t.Errorf("%s: always-taken branch not learned", name)
		}
		if p.Stats().Accuracy() >= 1 {
			t.Errorf("%s: warm-up mispredictions must be counted", name)
		}
	}
}

func TestLearnsAlternatingWithHistory(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pc, tgt := uint64(0x3000), uint64(0x4000)
		// Alternating pattern: both predictors should learn it via
		// global history.
		for i := 0; i < 400; i++ {
			p.Lookup(pc, i%2 == 0, tgt)
		}
		lateMiss := 0
		for i := 0; i < 100; i++ {
			if !p.Lookup(pc, i%2 == 0, tgt) {
				lateMiss++
			}
		}
		if lateMiss > 10 {
			t.Errorf("%s: alternating pattern: %d/100 late mispredicts", name, lateMiss)
		}
	}
}

func TestBTBTargetMiss(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pc := uint64(0x5000)
		// First taken encounter: direction may be wrong AND target unknown.
		p.Lookup(pc, true, 0x6000)
		if p.Stats().TargetMiss+p.Stats().DirMiss == 0 {
			t.Errorf("%s: first taken branch must mispredict somehow", name)
		}
		// Train to taken until histories saturate; then change the
		// target: the direction is right but the BTB is stale.
		for i := 0; i < 256; i++ {
			p.Lookup(pc, true, 0x6000)
		}
		before := p.Stats().TargetMiss
		p.Lookup(pc, true, 0x7000)
		if p.Stats().TargetMiss != before+1 {
			t.Errorf("%s: changed target not counted as target miss", name)
		}
	}
}

func TestPredictOnlyDoesNotTrain(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pc := uint64(0x8000)
		for i := 0; i < 4; i++ {
			p.Lookup(pc, true, 0x9000)
		}
		snap := p.Clone()
		p.PredictOnly(pc, true, 0x9000)
		p.PredictOnly(pc, false, 0x9000)
		if !reflect.DeepEqual(p, snap) {
			t.Errorf("%s: PredictOnly must not mutate state", name)
		}
	}
}

func TestNotTakenDefault(t *testing.T) {
	p := Default()
	// Gshare counters start at 0: not-taken branches predict correctly
	// at once.
	if !p.Lookup(0xA000, false, 0) {
		t.Error("cold not-taken branch should predict correctly")
	}
	if p.Stats().Accuracy() != 1 {
		t.Errorf("accuracy %v", p.Stats().Accuracy())
	}
}

func TestAccuracyIdle(t *testing.T) {
	if Default().Stats().Accuracy() != 1 {
		t.Error("idle predictor accuracy must be 1")
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"gshare", "tage"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if p, err := New(""); err != nil || p.Name() != DefaultName {
		t.Errorf(`New("") = %v, %v; want the default %q`, p, err, DefaultName)
	}
	for _, name := range append(want, "") {
		if err := Check(name); err != nil {
			t.Errorf("Check(%q) = %v", name, err)
		}
	}
	for _, name := range want {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("perceptron"); err == nil {
		t.Error("unknown predictor name must error")
	}
	if Check("perceptron") == nil {
		t.Error("Check accepted an unknown predictor name")
	}
}

// TestCloneDivergence checks the sampled-tier contract: a clone trains
// independently of its original.
func TestCloneDivergence(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pc, tgt := uint64(0xB000), uint64(0xC000)
		for i := 0; i < 300; i++ {
			p.Lookup(pc, i%3 == 0, tgt)
		}
		cp := p.Clone()
		if !reflect.DeepEqual(p, cp) {
			t.Fatalf("%s: fresh clone must equal the original", name)
		}
		// Train the clone on the opposite pattern; the original must not
		// move.
		snap := p.Clone()
		for i := 0; i < 300; i++ {
			cp.Lookup(pc, i%3 != 0, tgt)
			cp.Lookup(pc+64, i%2 == 0, tgt)
		}
		if !reflect.DeepEqual(p, snap) {
			t.Errorf("%s: training a clone mutated the original", name)
		}
		if reflect.DeepEqual(p, cp) {
			t.Errorf("%s: clone did not diverge after independent training", name)
		}
	}
}

// TestTAGELongHistoryBeatsGshare exercises the core TAGE advantage: a
// long-trip-count loop branch (25 taken, one not-taken) aliases in
// gshare — the 16-bit history is all-ones both mid-loop and at the
// exit — while TAGE's 44/120-bit history tables see the previous exit
// and learn the trip count exactly.
func TestTAGELongHistoryBeatsGshare(t *testing.T) {
	pattern := make([]bool, 26)
	for i := range pattern {
		pattern[i] = i != len(pattern)-1
	}
	run := func(p Predictor) float64 {
		pc, tgt := uint64(0xD000), uint64(0xE000)
		for i := 0; i < 30000; i++ {
			p.Lookup(pc, pattern[i%len(pattern)], tgt)
		}
		p.ResetStats()
		for i := 30000; i < 40000; i++ {
			p.Lookup(pc, pattern[i%len(pattern)], tgt)
		}
		st := p.Stats()
		return float64(st.Mispredicts) / float64(st.Branches)
	}
	g := run(Default())
	tg := run(NewTAGE())
	if tg >= g {
		t.Errorf("TAGE mispredict rate %.4f not below gshare %.4f on a long loop branch", tg, g)
	}
	if tg > 0.01 {
		t.Errorf("TAGE mispredict rate %.4f too high for a learnable trip count", tg)
	}
}

func BenchmarkGshareLookup(b *testing.B) {
	p := Default()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		p.Lookup(pc, i&3 != 0, pc+128)
	}
}

func BenchmarkTAGELookup(b *testing.B) {
	p := NewTAGE()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		p.Lookup(pc, i&3 != 0, pc+128)
	}
}
