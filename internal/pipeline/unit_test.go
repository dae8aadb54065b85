package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ltp/internal/isa"
)

func TestRegFileAllocFree(t *testing.T) {
	rf := NewRegFile("t", 32, 4)
	if rf.FreeCount() != 4 || rf.InUse() != 0 {
		t.Fatal("initial state wrong")
	}
	var regs []PReg
	for i := 0; i < 4; i++ {
		r, ok := rf.Alloc()
		if !ok {
			t.Fatal("alloc failed with free registers")
		}
		if int(r) < 32 {
			t.Error("allocated an architectural slot")
		}
		regs = append(regs, r)
	}
	if _, ok := rf.Alloc(); ok {
		t.Error("alloc succeeded with empty free list")
	}
	for _, r := range regs {
		rf.Free(r)
	}
	if rf.FreeCount() != 4 || rf.InUse() != 0 {
		t.Error("free list not restored")
	}
}

func TestRegFileReadiness(t *testing.T) {
	rf := NewRegFile("t", 32, 4)
	r, _ := rf.Alloc()
	if rf.Ready(r, 1000) {
		t.Error("fresh register must not be ready")
	}
	rf.SetReady(r, 50)
	if rf.Ready(r, 49) || !rf.Ready(r, 50) {
		t.Error("readiness timestamp comparison broken")
	}
}

// Property: any interleaving of allocs and frees conserves the pool.
func TestRegFileConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		rf := NewRegFile("t", 8, 16)
		var live []PReg
		for _, alloc := range ops {
			if alloc {
				if r, ok := rf.Alloc(); ok {
					live = append(live, r)
				}
			} else if len(live) > 0 {
				rf.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		return rf.FreeCount()+len(live) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRATBasics(t *testing.T) {
	rat := NewRAT()
	r3 := isa.R(3)
	if p, prod := rat.Lookup(r3); p != 3 || prod != nil {
		t.Fatal("initial identity mapping broken")
	}
	rat.WritePhys(r3, 40)
	if p, _ := rat.Lookup(r3); p != 40 {
		t.Error("WritePhys not visible")
	}
	prev := rat.CommitMapping(r3, 40)
	if prev != 3 {
		t.Errorf("previous committed mapping %d, want 3", prev)
	}
	if rat.CommittedPreg(r3) != 40 {
		t.Error("commit RAT not updated")
	}
}

func TestRATParkedFlow(t *testing.T) {
	rat := NewRAT()
	r5 := isa.R(5)
	f := &Inflight{U: isa.Uop{Dst: r5}, DstPreg: NoPReg}
	rat.WriteParked(r5, f)
	if !rat.SrcParked(r5) {
		t.Error("parked bit not set")
	}
	rat.ResolveParked(r5, f, 77)
	if rat.SrcParked(r5) {
		t.Error("parked bit survives resolution")
	}
	if p, _ := rat.Lookup(r5); p != 77 {
		t.Error("resolved register wrong")
	}
	// A stale resolve (not the latest writer) must not clobber.
	g := &Inflight{U: isa.Uop{Dst: r5}}
	rat.WriteParked(r5, g)
	rat.ResolveParked(r5, f, 99)
	if !rat.SrcParked(r5) {
		t.Error("stale ResolveParked clobbered a younger writer")
	}
}

func TestRATRestoreFromCommit(t *testing.T) {
	rat := NewRAT()
	rat.WritePhys(isa.R(1), 50)
	rat.WriteParked(isa.R(2), &Inflight{})
	rat.RestoreFromCommit()
	if p, prod := rat.Lookup(isa.R(1)); p != 1 || prod != nil {
		t.Error("restore did not reset speculative state")
	}
	if rat.SrcParked(isa.R(2)) {
		t.Error("restore left a parked bit")
	}
}

func TestROBOrderAndSquash(t *testing.T) {
	rob := NewROB(8)
	for i := uint64(0); i < 5; i++ {
		rob.Push(&Inflight{U: isa.Uop{Seq: i}})
	}
	if rob.Head().Seq() != 0 {
		t.Error("head wrong")
	}
	victims := rob.SquashFrom(3)
	if len(victims) != 2 || victims[0].Seq() != 3 {
		t.Errorf("squash returned %d victims", len(victims))
	}
	if rob.Len() != 3 {
		t.Errorf("ROB length %d after squash", rob.Len())
	}
	rob.PopHead()
	if rob.Head().Seq() != 1 {
		t.Error("pop broken")
	}
}

func TestIQCandidatesOrder(t *testing.T) {
	iq := NewIQ(8)
	for _, s := range []uint64{5, 2, 9, 1} {
		iq.Insert(&Inflight{U: isa.Uop{Seq: s}})
	}
	cands := iq.Candidates(0)
	if len(cands) != 4 || cands[0].Seq() != 1 || cands[3].Seq() != 9 {
		t.Errorf("candidates not oldest-first: %v", seqsOf(cands))
	}
	// blockedUntil filters.
	cands[0].blockedUntil = 100
	if got := iq.Candidates(50); len(got) != 3 {
		t.Errorf("blocked entry not filtered: %d", len(got))
	}
}

func seqsOf(fs []*Inflight) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.Seq()
	}
	return out
}

func TestOrderedQueueSortedInsert(t *testing.T) {
	q := newOrderedQueue(8)
	for _, s := range []uint64{5, 2, 9, 1} {
		q.Insert(&Inflight{U: isa.Uop{Seq: s}})
	}
	for i := 1; i < len(q.entries); i++ {
		if q.entries[i-1].Seq() > q.entries[i].Seq() {
			t.Fatalf("unsorted: %v", seqsOf(q.entries))
		}
	}
	q.SquashFrom(5)
	if q.Len() != 2 {
		t.Errorf("squash left %d", q.Len())
	}
	q.Remove(q.entries[0])
	if q.Len() != 1 || q.entries[0].Seq() != 2 {
		t.Error("remove broken")
	}
}

// Property: orderedQueue stays sorted under random insert orders.
func TestOrderedQueueSortProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		q := newOrderedQueue(len(seqs) + 1)
		seen := map[uint64]bool{}
		for _, s := range seqs {
			if seen[uint64(s)] {
				continue // seqs are unique in reality
			}
			seen[uint64(s)] = true
			q.Insert(&Inflight{U: isa.Uop{Seq: uint64(s)}})
		}
		for i := 1; i < len(q.entries); i++ {
			if q.entries[i-1].Seq() >= q.entries[i].Seq() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFUPoolPipelined(t *testing.T) {
	p := newFUPool(2, true)
	if !p.canIssue(0) {
		t.Fatal("fresh pool refuses")
	}
	p.issue(0, 5)
	p.issue(0, 5)
	if p.canIssue(0) {
		t.Error("per-cycle width not enforced")
	}
	p.resetCycle()
	if !p.canIssue(0) {
		t.Error("pipelined pool must accept next cycle")
	}
}

func TestFUPoolUnpipelined(t *testing.T) {
	p := newFUPool(1, false)
	p.issue(0, 20)
	p.resetCycle()
	if p.canIssue(10) {
		t.Error("unpipelined unit accepted while busy")
	}
	if !p.canIssue(20) {
		t.Error("unpipelined unit refused after completion")
	}
}

func TestStoreSets(t *testing.T) {
	ss := NewStoreSets()
	st := &Inflight{U: isa.Uop{Seq: 1, PC: 0x100, Op: isa.Store}}
	ld := &Inflight{U: isa.Uop{Seq: 2, PC: 0x200, Op: isa.Load}}
	if ss.DependencyFor(ld) != nil {
		t.Error("untrained predictor predicted a dependence")
	}
	ss.OnViolation(st, ld)
	// Re-dispatch: the store registers in the LFST, the load must wait.
	ss.OnDispatchStore(st)
	if got := ss.DependencyFor(ld); got != st {
		t.Error("trained dependence not predicted")
	}
	ss.OnComplete(st)
	if ss.DependencyFor(ld) != nil {
		t.Error("completed store still predicted")
	}
}

func TestStoreSetsSquash(t *testing.T) {
	ss := NewStoreSets()
	st := &Inflight{U: isa.Uop{Seq: 5, PC: 0x100, Op: isa.Store}}
	ld := &Inflight{U: isa.Uop{Seq: 6, PC: 0x200, Op: isa.Load}}
	ss.OnViolation(st, ld)
	ss.OnDispatchStore(st)
	ss.OnSquash(5)
	if ss.DependencyFor(ld) != nil {
		t.Error("squashed store still in LFST")
	}
}

func TestTicketMask(t *testing.T) {
	var m TicketMask
	if !m.Empty() {
		t.Fatal("zero mask not empty")
	}
	m.Set(3)
	m.Set(100)
	if m.Empty() || !m.Has(3) || !m.Has(100) || m.Has(4) {
		t.Error("set/has broken")
	}
	if m.Count() != 2 {
		t.Errorf("count %d", m.Count())
	}
	var o TicketMask
	o.Set(64)
	m.Or(o)
	if !m.Has(64) {
		t.Error("or broken")
	}
	m.Clear(3)
	m.Clear(100)
	m.Clear(64)
	if !m.Empty() {
		t.Error("clear broken")
	}
}

// Property: set/clear round-trips for any ticket index 0..127.
func TestTicketMaskProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var m TicketMask
		set := map[int]bool{}
		for _, r := range raw {
			i := int(r) % 128
			if set[i] {
				m.Clear(i)
				delete(set, i)
			} else {
				m.Set(i)
				set[i] = true
			}
		}
		if m.Count() != len(set) {
			return false
		}
		for i := range set {
			if !m.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}

	for _, mut := range []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.IntRegs = 1 },
		func(c *Config) { c.NumALU = 0 },
		func(c *Config) { c.BranchPred = "perceptron" },
		func(c *Config) { c.Hier.L1DSize = 3000 },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Error("invalid config accepted")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New must panic on an invalid config")
				}
			}()
			New(c, nil, NullParker{})
		}()
	}
}
