package pipeline

import (
	"fmt"

	"ltp/internal/bpred"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/prog"
	"ltp/internal/stats"
)

// never is the "stalled indefinitely" timestamp.
const never = ^uint64(0)

// decoded is a fetched µop moving through the front end.
type decoded struct {
	u       isa.Uop
	readyAt uint64 // cycle it reaches rename
	mispred bool   // front-end branch misprediction
}

// eventKind discriminates scheduled timing events.
type eventKind uint8

const (
	evDone      eventKind = iota // execution completes
	evStoreAddr                  // store address resolves (violation scan)
)

type event struct {
	at   uint64
	seq  uint64 // tie-break for determinism
	f    *Inflight
	kind eventKind
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// instead of using container/heap: the interface-based heap boxes every
// event into an interface{} (one allocation per push and pop) and its
// indirect calls dominated the event path's profile.
type eventHeap []event

func (h event) before(o event) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

// push adds an event, sifting it up to its heap position.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the *Inflight reference
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].before(s[min]) {
			min = l
		}
		if r < n && s[r].before(s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Pipeline is the cycle-level out-of-order core.
type Pipeline struct {
	cfg    Config
	Hier   *mem.Hierarchy
	BP     bpred.Predictor
	parker Parker

	stream     prog.Stream
	streamDone bool

	// Fetch & replay buffer: every fetched, uncommitted µop. The buffer is
	// consumed from bufHead (committed entries are dead space compacted in
	// place) so the steady state allocates nothing.
	fetchBuf        []isa.Uop
	bufHead         int    // index of the oldest uncommitted µop
	bufBase         uint64 // seq of fetchBuf[bufHead]
	fetchPos        int    // next buffer index to fetch (>= bufHead)
	fetchStallUntil uint64
	mispredSeq      uint64 // seq of the unresolved mispredicted branch (never = none)
	lastFetchLine   uint64
	trainedSeq      uint64 // newest branch seq the predictor was trained on

	// Decode queue, consumed from decodeHead and compacted in place.
	decodeQ    []decoded
	decodeHead int
	decodeQCap int

	// Inflight record pool. Retired (committed or squashed) records park in
	// `retired` until no live instruction can still reference them — every
	// cross-record pointer (SrcProd, DepStore, event entries) is held by an
	// instruction that coexisted with the referent in the ROB, so once
	// commit has advanced a full ROB window past a record's seq it is
	// unreachable and returns to `pool` for reuse. Disabled under the WIB
	// baseline, whose SrcWriter links can outlive that window.
	pool         []*Inflight
	retired      []*Inflight
	poolDisabled bool
	scavengeAt   uint64 // next bufBase at which scavenging is worth retrying

	// pending is an instruction that was classified (OnRename/ShouldPark
	// ran exactly once) but could not yet dispatch due to a structural
	// stall; it retries before anything younger renames.
	pending       *Inflight
	pendingParked bool

	rob   *ROB
	wib   *WIB // nil unless the WIB baseline is enabled
	iq    *IQ
	lq    *orderedQueue
	sq    *orderedQueue
	intRF *RegFile
	fpRF  *RegFile
	rat   *RAT
	fus   *fuBank
	ssets *StoreSets

	events eventHeap

	// llList holds in-flight, incomplete long-latency instructions in
	// program order (the paper's ROB long-latency tracking for the
	// Non-Urgent wakeup policy).
	llList []*Inflight

	// drainQ holds committed stores awaiting their SQ release.
	drainQ  []*Inflight
	drainAt []uint64

	now             uint64
	committed       uint64
	lastCommitCycle uint64
	resourceStall   bool // rename stalled on a commit-freed resource last cycle

	// cancelCh, when non-nil, is polled by Run every cancelPollCycles
	// cycles; once it is closed Run returns early and Aborted reports
	// true. Set it with SetCancel (typically to a context's Done
	// channel) before calling Run.
	cancelCh <-chan struct{}
	aborted  bool

	// Measured-region base offsets, set by ResetStats at the warm-up
	// boundary so Snapshot reports the measured region only.
	baseCycles    uint64
	baseCommitted uint64

	// TraceSink, when non-nil, receives every instruction at commit (the
	// cmd/ltptrace pipeline-viewer hook). The Inflight must not be
	// retained beyond the call.
	TraceSink func(*Inflight)

	// Measurement.
	OccIQ, OccROB, OccLQ, OccSQ stats.Accumulator
	OccIntRF, OccFPRF           stats.Accumulator
	OccOutstanding              stats.Accumulator
	Counters                    *stats.Set
	Issues, RFReads, RFWrites   uint64
	Fetched, Dispatched         uint64
	Squashes                    uint64
	renameStallReasons          [8]uint64
}

// Rename stall reasons (indices into renameStallReasons).
const (
	stallROB = iota
	stallIQ
	stallRegs
	stallLQ
	stallSQ
	stallLTP
	stallDecode
	stallOther
)

// New builds a pipeline over the given µop stream with the given Parker
// (use NullParker{} for the baseline core).
func New(cfg Config, stream prog.Stream, parker Parker) *Pipeline {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	p := &Pipeline{
		cfg:           cfg,
		Hier:          mem.NewHierarchy(cfg.Hier),
		BP:            mustPredictor(cfg.BranchPred),
		parker:        parker,
		stream:        stream,
		rob:           NewROB(cfg.ROBSize),
		iq:            NewIQ(cfg.IQSize),
		lq:            newOrderedQueue(cfg.LQSize),
		sq:            newOrderedQueue(cfg.SQSize),
		intRF:         NewRegFile("int", isa.NumIntRegs, cfg.IntRegs),
		fpRF:          NewRegFile("fp", isa.NumFPRegs, cfg.FPRegs),
		rat:           NewRAT(),
		fus:           newFUBank(&cfg),
		ssets:         NewStoreSets(),
		decodeQCap:    cfg.FetchWidth * (int(cfg.FrontEndDepth) + 2),
		mispredSeq:    never,
		lastFetchLine: ^uint64(0),
		Counters:      stats.NewSet(),
	}
	if cfg.WIBSize > 0 {
		p.wib = NewWIB(cfg.WIBSize, cfg.WIBPorts, cfg.LLThreshold)
		p.poolDisabled = true
	}
	return p
}

// allocInflight hands out a zeroed Inflight record, reusing retired ones
// when the reuse window (see the pool fields) allows.
func (p *Pipeline) allocInflight() *Inflight {
	if len(p.pool) == 0 {
		p.scavenge()
	}
	if n := len(p.pool); n > 0 {
		f := p.pool[n-1]
		p.pool[n-1] = nil
		p.pool = p.pool[:n-1]
		*f = Inflight{}
		return f
	}
	return new(Inflight)
}

// recordRetired parks a committed or squashed record for later reuse.
func (p *Pipeline) recordRetired(f *Inflight) {
	if p.poolDisabled {
		return
	}
	p.retired = append(p.retired, f)
}

// scavenge moves retired records whose reuse window has passed into the
// pool. The scan is rate-limited by commit progress so a stalled window
// does not trigger a full scan per allocation.
func (p *Pipeline) scavenge() {
	if len(p.retired) == 0 || p.bufBase < p.scavengeAt {
		return
	}
	p.scavengeAt = p.bufBase + 64
	horizon := uint64(p.cfg.ROBSize) + 1
	w := p.retired[:0]
	for _, f := range p.retired {
		if f.pendingEvents == 0 && !f.HasLSQ && f.Seq()+horizon < p.bufBase {
			p.pool = append(p.pool, f)
			continue
		}
		w = append(w, f)
	}
	for i := len(w); i < len(p.retired); i++ {
		p.retired[i] = nil
	}
	p.retired = w
}

// NewShared is like New but reuses an existing hierarchy (warm caches).
func NewShared(cfg Config, stream prog.Stream, parker Parker, h *mem.Hierarchy) *Pipeline {
	p := New(cfg, stream, parker)
	p.Hier = h
	return p
}

// Cfg returns the configuration.
func (p *Pipeline) Cfg() *Config { return &p.cfg }

// ResetStats marks the warm-up/measured-region boundary: every statistic
// (occupancy integrals, counters, hierarchy and branch-predictor stats,
// and the Parker's, when it exposes ResetStats) is zeroed while all
// microarchitectural state — cache contents, predictor tables, in-flight
// instructions — is kept. Snapshot then reports the measured region only.
func (p *Pipeline) ResetStats() {
	p.baseCycles = p.now
	p.baseCommitted = p.committed
	p.OccIQ.Reset()
	p.OccROB.Reset()
	p.OccLQ.Reset()
	p.OccSQ.Reset()
	p.OccIntRF.Reset()
	p.OccFPRF.Reset()
	p.OccOutstanding.Reset()
	p.Counters = stats.NewSet()
	p.Issues, p.RFReads, p.RFWrites = 0, 0, 0
	p.Fetched, p.Dispatched, p.Squashes = 0, 0, 0
	p.renameStallReasons = [8]uint64{}
	p.Hier.ResetStats()
	p.BP.ResetStats()
	if r, ok := p.parker.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// cancelPollCycles bounds how many cycles Run simulates between polls
// of the cancel channel. At typical simulation speed (a few million
// cycles per wall-clock second) 2048 cycles keeps the abort latency
// well under a millisecond while the per-cycle cost is a nil check and
// a mask compare — unmeasurable against the work of one Cycle.
const cancelPollCycles = 2048

// SetCancel arms an abort check: Run polls done (typically a
// context's Done channel) every cancelPollCycles cycles and returns
// early once it is closed, leaving the pipeline state intact and
// Aborted reporting true. A nil channel disables the check.
func (p *Pipeline) SetCancel(done <-chan struct{}) { p.cancelCh = done }

// Aborted reports whether a Run returned early because the cancel
// channel (see SetCancel) was closed.
func (p *Pipeline) Aborted() bool { return p.aborted }

// Now returns the current cycle.
func (p *Pipeline) Now() uint64 { return p.now }

// Committed returns the number of committed instructions.
func (p *Pipeline) Committed() uint64 { return p.committed }

// Parker returns the attached parking unit.
func (p *Pipeline) Parker() Parker { return p.parker }

// classRF returns the register file for an architectural register's class.
func (p *Pipeline) classRF(r isa.Reg) *RegFile {
	if r.IsFP() {
		return p.fpRF
	}
	return p.intRF
}

// SrcParked reports whether the latest writer of r is parked (the paper's
// RAT Parked bit).
func (p *Pipeline) SrcParked(r isa.Reg) bool { return p.rat.SrcParked(r) }

// ROBHeadSeq returns the oldest in-flight seq (never when empty).
func (p *Pipeline) ROBHeadSeq() uint64 {
	if h := p.rob.Head(); h != nil {
		return h.Seq()
	}
	return never
}

// ROBLen returns the ROB occupancy.
func (p *Pipeline) ROBLen() int { return p.rob.Len() }

// SecondLLSeq returns the sequence number of the second-oldest in-flight,
// incomplete long-latency instruction (never if fewer than two). The
// Non-Urgent wakeup policy wakes everything older than this (§3.2).
func (p *Pipeline) SecondLLSeq() uint64 {
	if len(p.llList) < 2 {
		return never
	}
	return p.llList[1].Seq()
}

// wakePace bounds how far past the last known stalling instruction the
// Non-Urgent wakeup may run when fewer than two long-latency instructions
// are in flight. Without pacing, a momentary dip in in-flight misses would
// flush the whole LTP into the IQ and register file at once, defeating the
// late allocation (the paper's policy implicitly paces through the ROB
// walk from the head).
const wakePace = 64

// WakeBound returns the sequence number below which parked Non-Urgent
// instructions should be woken this cycle: everything between the ROB head
// and the second in-flight long-latency instruction (§3.2), paced when
// fewer than two misses are outstanding.
func (p *Pipeline) WakeBound() uint64 {
	switch len(p.llList) {
	case 0:
		if h := p.rob.Head(); h != nil {
			return h.Seq() + wakePace
		}
		return p.bufBase + wakePace
	case 1:
		return p.llList[0].Seq() + wakePace
	default:
		return p.llList[1].Seq()
	}
}

// OldestLLSeq returns the oldest in-flight incomplete LL seq (never = none).
func (p *Pipeline) OldestLLSeq() uint64 {
	if len(p.llList) == 0 {
		return never
	}
	return p.llList[0].Seq()
}

// schedule pushes a timing event.
func (p *Pipeline) schedule(at uint64, f *Inflight, kind eventKind) {
	f.pendingEvents++
	p.events.push(event{at: at, seq: f.Seq(), f: f, kind: kind})
}

// Cycle advances the simulation one clock. Stage order is commit →
// (events) → issue → LTP wakeup → rename → fetch so same-cycle hand-off
// flows without intra-cycle hazards.
func (p *Pipeline) Cycle() {
	p.now++
	p.fus.resetCycle()
	p.Hier.Tick(p.now) // co-runner traffic shares the clock

	p.processEvents()
	p.releaseDrainedStores()
	p.commitStage()
	if p.wib != nil {
		p.wibCycle(p.now)
	}
	p.issueStage()
	p.renameStage() // includes LTP wakeup with priority
	p.fetchStage()

	p.parker.NoteCycle(p, p.now)
	p.sample()

	if p.cfg.WatchdogCycles > 0 && p.rob.Len() > 0 &&
		p.now-p.lastCommitCycle > p.cfg.WatchdogCycles {
		panic(fmt.Sprintf("pipeline: watchdog, no commit for %d cycles at cycle %d\n%s",
			p.cfg.WatchdogCycles, p.now, p.debugDump()))
	}
}

// processEvents applies all events due this cycle.
func (p *Pipeline) processEvents() {
	for len(p.events) > 0 && p.events[0].at <= p.now {
		ev := p.events.pop()
		f := ev.f
		f.pendingEvents--
		if f.Squashed {
			continue
		}
		switch ev.kind {
		case evDone:
			f.Done = true
			if f.HasDst() {
				p.RFWrites++
			}
			p.removeLL(f)
			if f.Mispred && f.Seq() == p.mispredSeq {
				p.mispredSeq = never
				p.fetchStallUntil = p.now
			}
			p.parker.NoteExecDone(p, f, p.now)
		case evStoreAddr:
			p.checkViolations(f)
		}
	}
}

// removeLL drops a completed instruction from the LL tracking list.
func (p *Pipeline) removeLL(f *Inflight) {
	if !f.LL {
		return
	}
	for i, e := range p.llList {
		if e == f {
			p.llList = append(p.llList[:i], p.llList[i+1:]...)
			return
		}
	}
}

// addLL inserts a detected long-latency instruction in program order.
func (p *Pipeline) addLL(f *Inflight) {
	p.llList = insertBySeq(p.llList, f)
}

// releaseDrainedStores frees SQ entries whose post-commit writeback is done.
func (p *Pipeline) releaseDrainedStores() {
	w, wa := p.drainQ[:0], p.drainAt[:0]
	for i, f := range p.drainQ {
		if p.drainAt[i] <= p.now {
			p.sq.Remove(f)
			f.HasLSQ = false
			continue
		}
		w = append(w, f)
		wa = append(wa, p.drainAt[i])
	}
	p.drainQ, p.drainAt = w, wa
}

// storeDrainLatency is the cycles between a store's commit and its SQ entry
// release (footnote 3: "shortly after they commit").
const storeDrainLatency = 4

// canCommit reports whether the ROB head can retire this cycle.
func (p *Pipeline) canCommit(f *Inflight) bool {
	if f.Parked {
		return false
	}
	if f.IsStore() {
		if f.AddrKnownAt == 0 || f.AddrKnownAt > p.now {
			return false
		}
		return p.storeDataReady(f, p.now)
	}
	return f.Done && f.DoneAt <= p.now
}

// storeDataReady reports whether the store's data operand is available,
// resolving a lazy link to a formerly-parked producer on the way.
func (p *Pipeline) storeDataReady(f *Inflight, now uint64) bool {
	if !f.U.Src2.Valid() {
		return true
	}
	if prod := f.SrcProd[1]; prod != nil {
		if prod.DstPreg == NoPReg {
			return false // producer still parked
		}
		f.SrcPreg[1] = prod.DstPreg
		f.SrcProd[1] = nil
	}
	pr := f.SrcPreg[1]
	if pr == NoPReg {
		return false
	}
	return p.classRF(f.U.Src2).Ready(pr, now)
}

// commitStage retires up to CommitWidth instructions in order.
func (p *Pipeline) commitStage() {
	for n := 0; n < p.cfg.CommitWidth; n++ {
		f := p.rob.Head()
		if f == nil || !p.canCommit(f) {
			return
		}
		f.Committed = true
		f.CommitAt = p.now

		if f.IsStore() {
			p.Hier.StoreCommit(f.U.Addr, p.now)
			f.Done = true
			f.DoneAt = p.now
			p.ssets.OnComplete(f)
			if f.HasLSQ {
				p.drainQ = append(p.drainQ, f)
				p.drainAt = append(p.drainAt, p.now+storeDrainLatency)
			}
		}
		if f.IsLoad() && f.HasLSQ {
			p.lq.Remove(f)
			f.HasLSQ = false
		}
		if f.HasDst() {
			if f.DstPreg == NoPReg {
				panic("pipeline: committing instruction without a physical register: " + f.String())
			}
			prev := p.rat.CommitMapping(f.U.Dst, f.DstPreg)
			p.classRF(f.U.Dst).Free(prev)
		}
		p.parker.NoteCommit(p, f, p.now)
		if p.TraceSink != nil {
			p.TraceSink(f)
		}

		p.rob.PopHead()
		// Retire from the replay buffer.
		if p.bufBase != f.Seq() {
			panic(fmt.Sprintf("pipeline: replay buffer head %d != committing seq %d", p.bufBase, f.Seq()))
		}
		p.bufHead++
		p.bufBase++
		// Compact the dead prefix in place once it dominates the buffer;
		// the array is reused so steady-state fetch allocates nothing.
		if p.bufHead >= 1024 && 2*p.bufHead >= len(p.fetchBuf) {
			n := copy(p.fetchBuf, p.fetchBuf[p.bufHead:])
			p.fetchBuf = p.fetchBuf[:n]
			p.fetchPos -= p.bufHead
			p.bufHead = 0
		}

		p.committed++
		p.lastCommitCycle = p.now
		p.recordRetired(f)
	}
}

// mustPredictor builds the configured branch predictor; Config.Validate
// has already checked the name, so failure here is a programmer error.
func mustPredictor(name string) bpred.Predictor {
	bp, err := bpred.New(name)
	if err != nil {
		panic("pipeline: " + err.Error())
	}
	return bp
}
