package core

import (
	"fmt"

	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/stats"
)

// Mode selects which instruction classes the LTP parks.
type Mode uint8

const (
	// ModeOff parks nothing (baseline; prefer pipeline.NullParker).
	ModeOff Mode = iota
	// ModeNU parks Non-Urgent instructions (the paper's recommended,
	// queue-based design).
	ModeNU
	// ModeNR parks Non-Ready instructions (ticket-based, Appendix).
	ModeNR
	// ModeNRNU parks instructions that are Non-Urgent or Non-Ready.
	ModeNRNU
)

var modeNames = map[Mode]string{
	ModeOff: "off", ModeNU: "NU", ModeNR: "NR", ModeNRNU: "NR+NU",
}

// String returns the mode name as used in the paper's legends.
func (m Mode) String() string { return modeNames[m] }

// ParksNU reports whether the mode parks Non-Urgent instructions.
func (m Mode) ParksNU() bool { return m == ModeNU || m == ModeNRNU }

// ParksNR reports whether the mode parks Non-Ready instructions.
func (m Mode) ParksNR() bool { return m == ModeNR || m == ModeNRNU }

// WakePolicy selects the Non-Urgent wakeup rule. The paper's design is
// ROB proximity (§3.2); the alternatives exist for ablation studies that
// quantify why that choice matters.
type WakePolicy uint8

const (
	// WakeROBProximity wakes instructions between the ROB head and the
	// second in-flight long-latency instruction (the paper's policy).
	WakeROBProximity WakePolicy = iota
	// WakeEager wakes parked instructions as soon as ports allow,
	// regardless of ROB position (defeats late allocation).
	WakeEager
	// WakeLazy wakes only instructions at the immediate ROB head region
	// (maximizes parking time; risks commit-burst stalls).
	WakeLazy
)

var wakeNames = map[WakePolicy]string{
	WakeROBProximity: "rob-proximity", WakeEager: "eager", WakeLazy: "lazy",
}

// String returns the policy name.
func (w WakePolicy) String() string { return wakeNames[w] }

// Config configures the Long Term Parking unit.
type Config struct {
	Mode Mode

	// Ident selects the identification policy: the paper's UIT +
	// LL-predictor design (IdentPaper, default) or the ChampSim-style
	// criticality-table alternative (IdentCrit).
	Ident IdentPolicy

	// CritEntries sizes the IdentCrit criticality table (<=0 =
	// DefaultCritEntries; power of two).
	CritEntries int

	// Wake selects the Non-Urgent wakeup policy (default: ROB proximity,
	// the paper's design; others are ablations).
	Wake WakePolicy

	// DisableUrgentEscape force-parks Urgent consumers of parked
	// producers (strict parked-bit semantics). This is an ablation: it
	// reproduces the loop-carried parked-bit cascade that serializes
	// misses (see ShouldPark).
	DisableUrgentEscape bool

	// Entries is the LTP capacity (<=0 = unlimited, the limit study).
	Entries int
	// Ports is the per-cycle enqueue and dequeue bandwidth, each
	// (<=0 = unlimited). The paper's realistic design uses 128 entries
	// with 4 ports.
	Ports int

	// UITEntries sizes the Urgent Instruction Table (<=0 = unlimited).
	UITEntries int
	// UITWays is the UIT associativity (default 4).
	UITWays int

	// Tickets bounds concurrent long-latency tracking for the Non-Ready
	// design (max 128; Fig. 11 sweeps 4..128).
	Tickets int

	// Oracle, when non-nil, supplies perfect per-instruction
	// classification (the limit study, §4.1). The UIT and LL predictor
	// are bypassed.
	Oracle *Oracle

	// MonitorForceOn disables the DRAM-timer power gating, keeping LTP
	// always enabled.
	MonitorForceOn bool

	// EarlyWakeupLead is the cycles of advance notice the phased L2/L3
	// tags give ticket clearing (defaults to the hierarchy's setting).
	EarlyWakeupLead uint64
}

// DefaultConfig returns the paper's realistic design: Non-Urgent-only,
// 128-entry 4-port queue, 256-entry UIT.
func DefaultConfig() Config {
	return Config{
		Mode:       ModeNU,
		Entries:    128,
		Ports:      4,
		UITEntries: 256,
		UITWays:    4,
		Tickets:    64,
	}
}

// Validate reports the first structural error New would panic on: an
// unknown identification policy, a finite UIT whose entry count and
// associativity give no power-of-two set count, or an IdentCrit
// criticality table that is not a power of two.
func (c Config) Validate() error {
	if c.Ident.String() == "" {
		return fmt.Errorf("core: unknown LTP identification policy %d", c.Ident)
	}
	if c.UITEntries > 0 {
		ways := c.UITWays
		if ways <= 0 {
			ways = 4
		}
		if c.UITEntries < ways {
			ways = c.UITEntries
		}
		if sets := c.UITEntries / ways; sets&(sets-1) != 0 {
			return fmt.Errorf("core: UIT of %d entries, %d ways has no power-of-two set count", c.UITEntries, ways)
		}
	}
	if c.Ident == IdentCrit && c.CritEntries > 0 && c.CritEntries&(c.CritEntries-1) != 0 {
		return fmt.Errorf("core: crit table size %d is not a power of two", c.CritEntries)
	}
	return nil
}

// ratExt is the per-architectural-register RAT extension (Fig. 9): the
// producer's PC for backward urgency propagation, the ticket set for
// forward readiness tracking, and the writer's seq for squash rollback.
type ratExt struct {
	producerPC  uint64
	producerSeq uint64
	tickets     pipeline.TicketMask
	valid       bool
}

// ticketClear is a scheduled ticket broadcast (early wakeup).
type ticketClear struct {
	at       uint64
	ticket   int
	ownerSeq uint64
}

// LTP is the Long Term Parking unit; it implements pipeline.Parker.
type LTP struct {
	cfg     Config
	uit     *UIT
	llpred  *LLPredictor
	crit    *CritTable // IdentCrit tables (nil under IdentPaper)
	monitor *DRAMMonitor

	ext [isa.NumArchRegs]ratExt

	queue []*pipeline.Inflight // parked instructions, program order

	// ownTicket maps an in-flight seq to the ticket it owns (set on the
	// Inflight via ownTickets map to keep pipeline.Inflight lean).
	ownTicket map[uint64]int

	ticketOwner    []uint64 // seq of owning instruction; ^0 = free
	pendingClears  []ticketClear
	parkedStoreMap map[uint64][]*pipeline.Inflight // word addr -> parked stores

	parkedLoads  int
	parkedStores int
	parkedRegs   int

	enqThisCycle int
	deqThisCycle int

	// Functional warm-up bookkeeping (WarmObserve/WarmFinish).
	warmInsts    uint64
	warmLastDRAM uint64
	warmSawDRAM  bool

	// Statistics.
	OccInsts, OccRegs   stats.Accumulator
	OccLoads, OccStores stats.Accumulator
	ParkedTotal         uint64
	WokenTotal          uint64
	PressureWakes       uint64
	ForcedParks         uint64 // parked because a source was parked (P-bit)
	ClassUrgent         uint64
	ClassNonReady       uint64
	TicketsExhausted    uint64
	Enqueues, Dequeues  uint64
}

// New builds an LTP unit for a hierarchy with the given DRAM latency.
func New(cfg Config, dramLatency uint64, earlyLead uint64) *LTP {
	if cfg.Tickets <= 0 || cfg.Tickets > 128 {
		cfg.Tickets = 128
	}
	if cfg.EarlyWakeupLead == 0 {
		cfg.EarlyWakeupLead = earlyLead
	}
	l := &LTP{
		cfg:            cfg,
		uit:            NewUIT(cfg.UITEntries, cfg.UITWays),
		llpred:         DefaultLLPredictor(),
		monitor:        NewDRAMMonitor(dramLatency, cfg.MonitorForceOn),
		ownTicket:      make(map[uint64]int),
		ticketOwner:    make([]uint64, cfg.Tickets),
		parkedStoreMap: make(map[uint64][]*pipeline.Inflight),
	}
	for i := range l.ticketOwner {
		l.ticketOwner[i] = ^uint64(0)
	}
	if cfg.Ident == IdentCrit {
		l.crit = NewCritTable(cfg.CritEntries)
	}
	return l
}

// Cfg returns the configuration.
func (l *LTP) Cfg() Config { return l.cfg }

// UITTable exposes the UIT (tests, examples).
func (l *LTP) UITTable() *UIT { return l.uit }

// Monitor exposes the DRAM-timer monitor.
func (l *LTP) Monitor() *DRAMMonitor { return l.monitor }

// Predictor exposes the long-latency predictor.
func (l *LTP) Predictor() *LLPredictor { return l.llpred }

// Crit exposes the IdentCrit criticality table (nil under IdentPaper).
func (l *LTP) Crit() *CritTable { return l.crit }

// ParkedCount implements pipeline.Parker.
func (l *LTP) ParkedCount() int { return len(l.queue) }

// freeTicket returns a free ticket index or -1.
func (l *LTP) freeTicket() int {
	for i, s := range l.ticketOwner {
		if s == ^uint64(0) {
			return i
		}
	}
	return -1
}

// OnRename implements pipeline.Parker: classify the instruction and update
// the RAT extensions.
func (l *LTP) OnRename(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Oracle != nil {
		l.classifyOracle(f)
	} else {
		l.classifyRealistic(f, now)
	}
	if f.Urgent {
		l.ClassUrgent++
	}
	if f.NonReady {
		l.ClassNonReady++
	}
	l.updateExt(f)
}

// classifyOracle applies the limit study's perfect classification: the
// oracle identifies long-latency instructions and Urgent ancestors exactly
// (§4.1's "oracle to predict long-latency instructions"). Readiness still
// flows through tickets so wakeup *timing* stays physical; the oracle only
// replaces the identification of long-latency producers.
func (l *LTP) classifyOracle(f *pipeline.Inflight) {
	fl := l.cfg.Oracle.Flags(f.Seq())
	f.Urgent = fl&FlagUrgent != 0
	f.PredLL = fl&FlagLongLat != 0
	l.inheritTickets(f)
	if l.cfg.Mode.ParksNR() && f.PredLL {
		l.allocateOwnTicket(f)
	}
	f.NonReady = !f.Tickets.Empty()
}

// classifyRealistic runs the identification policy (UIT lookup +
// LL predictor under IdentPaper, criticality tables under IdentCrit),
// backward urgency propagation, and ticket inheritance (§5.2 and
// Appendix).
func (l *LTP) classifyRealistic(f *pipeline.Inflight, now uint64) {
	if l.cfg.Ident == IdentCrit {
		f.Urgent = l.crit.Urgent(f.U.PC)
	} else {
		f.Urgent = l.uit.Urgent(f.U.PC)
	}
	if f.Urgent {
		// Backward propagation: the producers of an Urgent instruction's
		// sources are Urgent too (one dependence edge per iteration).
		for _, r := range [2]isa.Reg{f.U.Src1, f.U.Src2} {
			if r.Valid() && l.ext[r].valid && l.ext[r].producerPC != 0 {
				if l.cfg.Ident == IdentCrit {
					l.crit.Bump(l.ext[r].producerPC)
				} else {
					l.uit.Insert(l.ext[r].producerPC)
				}
			}
		}
	}
	if f.U.Op == isa.Load {
		if l.cfg.Ident == IdentCrit {
			f.PredLL = l.crit.PredictLL(f.U.PC)
		} else {
			f.PredLL = l.llpred.Predict(f.U.PC)
		}
	} else if f.U.Op.IsLongLatencyALU() {
		f.PredLL = true
	}
	l.inheritTickets(f)
	if l.cfg.Mode.ParksNR() && f.PredLL {
		l.allocateOwnTicket(f)
	}
	f.NonReady = !f.Tickets.Empty()
}

// inheritTickets unions the live tickets of the instruction's sources.
func (l *LTP) inheritTickets(f *pipeline.Inflight) {
	if !l.cfg.Mode.ParksNR() {
		return
	}
	for _, r := range [2]isa.Reg{f.U.Src1, f.U.Src2} {
		if r.Valid() && l.ext[r].valid {
			f.Tickets.Or(l.ext[r].tickets)
		}
	}
}

// allocateOwnTicket gives a predicted-LL instruction a ticket its
// descendants will wait on. Exhaustion simply forgoes tracking (Fig. 11).
func (l *LTP) allocateOwnTicket(f *pipeline.Inflight) {
	t := l.freeTicket()
	if t < 0 {
		l.TicketsExhausted++
		return
	}
	l.ticketOwner[t] = f.Seq()
	l.ownTicket[f.Seq()] = t
}

// updateExt records the instruction as the latest writer of its
// destination register.
func (l *LTP) updateExt(f *pipeline.Inflight) {
	if !f.HasDst() {
		return
	}
	e := &l.ext[f.U.Dst]
	e.valid = true
	e.producerPC = f.U.PC
	e.producerSeq = f.Seq()
	e.tickets = f.Tickets
	if t, ok := l.ownTicket[f.Seq()]; ok {
		e.tickets.Set(t)
	}
}

// ShouldPark implements pipeline.Parker.
func (l *LTP) ShouldPark(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) bool {
	// P-bit: Non-Urgent consumers of parked producers park regardless of
	// the monitor (they could not execute anyway and would clog the IQ,
	// §5.2). Urgent consumers are NOT force-parked: they dispatch with a
	// lazy operand link so a loop-carried urgent chain that was parked
	// once during UIT warm-up can escape the parked state — otherwise the
	// parked bit would cascade through e.g. a loop counter forever and
	// serialize every dependent miss (the pathology behind the paper's
	// footnote on breaking false parked-bit dependences).
	if p.SrcParked(f.U.Src1) || p.SrcParked(f.U.Src2) {
		if !f.Urgent || l.cfg.DisableUrgentEscape {
			l.ForcedParks++
			return true
		}
	}
	// §5.3: loads the memory dependence unit predicts to depend on a
	// parked store are parked too (the parked bit propagates through
	// memory). The address check stands in for the paper's store→load
	// dependence prediction.
	if f.IsLoad() {
		if l.ParkedStoreConflict(f.U.Addr, f.Seq()) {
			l.ForcedParks++
			return true
		}
		if dep := p.PredictedDepStore(f); dep != nil && dep.Parked {
			l.ForcedParks++
			return true
		}
	}
	if !l.monitor.Enabled(now) {
		return false
	}
	switch l.cfg.Mode {
	case ModeNU:
		return !f.Urgent
	case ModeNR:
		return f.NonReady
	case ModeNRNU:
		return !f.Urgent || f.NonReady
	default:
		return false
	}
}

// CanAccept implements pipeline.Parker.
func (l *LTP) CanAccept(now uint64) bool {
	if l.cfg.Entries > 0 && len(l.queue) >= l.cfg.Entries {
		return false
	}
	if l.cfg.Ports > 0 && l.enqThisCycle >= l.cfg.Ports {
		return false
	}
	return true
}

// scrubStaleTickets removes ticket bits that no longer correspond to an
// older in-flight owner. An instruction can be classified, then stall
// before dispatch (e.g. LTP write ports busy); ticket broadcasts during
// that window reach the queue and the RAT extension but not the stalled
// instruction, so its mask must be reconciled when it finally parks —
// otherwise it would wait forever on a ticket nobody will clear again.
func (l *LTP) scrubStaleTickets(f *pipeline.Inflight) {
	if f.Tickets.Empty() {
		return
	}
	for t := 0; t < len(l.ticketOwner); t++ {
		if !f.Tickets.Has(t) {
			continue
		}
		owner := l.ticketOwner[t]
		if owner == ^uint64(0) || owner >= f.Seq() {
			f.Tickets.Clear(t)
		}
	}
}

// Park implements pipeline.Parker.
func (l *LTP) Park(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	l.scrubStaleTickets(f)
	l.queue = append(l.queue, f)
	l.enqThisCycle++
	l.Enqueues++
	l.ParkedTotal++
	if f.IsLoad() {
		l.parkedLoads++
	}
	if f.IsStore() {
		l.parkedStores++
		l.parkedStoreMap[f.U.Addr] = append(l.parkedStoreMap[f.U.Addr], f)
	}
	if f.HasDst() {
		l.parkedRegs++
	}
}

// removeFromQueue drops the queue element at index i and maintains the
// occupancy counters.
func (l *LTP) removeFromQueue(i int) *pipeline.Inflight {
	f := l.queue[i]
	l.queue = append(l.queue[:i], l.queue[i+1:]...)
	if f.IsLoad() {
		l.parkedLoads--
	}
	if f.IsStore() {
		l.parkedStores--
		l.dropParkedStore(f)
	}
	if f.HasDst() {
		l.parkedRegs--
	}
	return f
}

func (l *LTP) dropParkedStore(f *pipeline.Inflight) {
	lst := l.parkedStoreMap[f.U.Addr]
	for j, e := range lst {
		if e == f {
			lst = append(lst[:j], lst[j+1:]...)
			break
		}
	}
	if len(lst) == 0 {
		delete(l.parkedStoreMap, f.U.Addr)
	} else {
		l.parkedStoreMap[f.U.Addr] = lst
	}
}

// ParkedStoreConflict implements pipeline.Parker.
func (l *LTP) ParkedStoreConflict(addr uint64, seq uint64) bool {
	for _, st := range l.parkedStoreMap[addr] {
		if st.Seq() < seq {
			return true
		}
	}
	return false
}

// sourcesResolved reports whether every parked producer of f has already
// been given its physical register (left the LTP).
func sourcesResolved(f *pipeline.Inflight) bool {
	for i := range f.SrcProd {
		if prod := f.SrcProd[i]; prod != nil && prod.DstPreg == pipeline.NoPReg {
			return false
		}
	}
	return true
}

// Wake implements pipeline.Parker: the ROB-proximity policy for Non-Urgent
// instructions (wake everything older than the second in-flight
// long-latency instruction, §3.2/§5.2) plus out-of-order ticket-clear
// wakeup for the Non-Ready design (Appendix).
func (l *LTP) Wake(p *pipeline.Pipeline, now uint64, max int, pressure bool) int {
	l.fireTicketClears(p, now)

	budget := max
	if l.cfg.Ports > 0 && budget > l.cfg.Ports {
		budget = l.cfg.Ports
	}
	woken := 0
	var bound uint64
	switch l.cfg.Wake {
	case WakeEager:
		bound = ^uint64(0)
	case WakeLazy:
		bound = p.ROBHeadSeq() + 16
	default:
		bound = p.WakeBound()
	}

	if l.cfg.Mode.ParksNR() {
		// Out-of-order scan (the ticket CAM / bit-matrix): oldest first so
		// producers leave no later than consumers.
		for i := 0; i < len(l.queue) && woken < budget; {
			f := l.queue[i]
			oldest := i == 0
			eligible := false
			switch {
			case pressure && oldest:
				// §5.4: the pipeline is stalled on a commit-freed
				// resource; release the oldest parked instruction since
				// committing it frees resources.
				eligible = true
				l.PressureWakes++
			case !f.Tickets.Empty():
				eligible = false // still waiting on a long-latency ancestor
			case f.Urgent:
				eligible = true // U+NR: go as soon as tickets clear
			default:
				eligible = f.Seq() < bound // NU: ROB-proximity criterion
			}
			if !eligible || !sourcesResolved(f) || !p.CanUnpark(f, oldest) {
				i++
				continue
			}
			l.removeFromQueue(i)
			p.Unpark(f, now)
			l.afterUnpark(f)
			woken++
		}
		return woken
	}

	// Queue-based Non-Urgent design: strict FIFO release.
	for woken < budget && len(l.queue) > 0 {
		f := l.queue[0]
		eligible := f.Seq() < bound
		if pressure && woken == 0 {
			eligible = true
			l.PressureWakes++
		}
		if !eligible {
			break
		}
		if !sourcesResolved(f) || !p.CanUnpark(f, true) {
			break
		}
		l.removeFromQueue(0)
		p.Unpark(f, now)
		l.afterUnpark(f)
		woken++
	}
	return woken
}

func (l *LTP) afterUnpark(f *pipeline.Inflight) {
	l.deqThisCycle++
	l.Dequeues++
	l.WokenTotal++
}

// fireTicketClears applies due ticket broadcasts to parked instructions
// and the RAT extension.
func (l *LTP) fireTicketClears(p *pipeline.Pipeline, now uint64) {
	if len(l.pendingClears) == 0 {
		return
	}
	w := l.pendingClears[:0]
	for _, c := range l.pendingClears {
		if c.at > now {
			w = append(w, c)
			continue
		}
		if l.ticketOwner[c.ticket] != c.ownerSeq {
			continue // ticket was reassigned after a squash
		}
		l.clearTicket(c.ticket)
	}
	l.pendingClears = w
}

// clearTicket broadcasts a ticket clear and frees the ticket.
func (l *LTP) clearTicket(t int) {
	for _, f := range l.queue {
		f.Tickets.Clear(t)
	}
	for i := range l.ext {
		l.ext[i].tickets.Clear(t)
	}
	owner := l.ticketOwner[t]
	l.ticketOwner[t] = ^uint64(0)
	delete(l.ownTicket, owner)
}

// scheduleTicketClear arms a ticket's broadcast at the given cycle.
func (l *LTP) scheduleTicketClear(f *pipeline.Inflight, at uint64) {
	t, ok := l.ownTicket[f.Seq()]
	if !ok {
		return
	}
	l.pendingClears = append(l.pendingClears, ticketClear{at: at, ticket: t, ownerSeq: f.Seq()})
}

// NoteLoadIssued implements pipeline.Parker: DRAM-monitor restart, LL
// predictor training, and ticket early wakeup using the phased-tag signal.
func (l *LTP) NoteLoadIssued(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if f.MemLevel == mem.LvlDRAM {
		l.monitor.NoteDemandMiss(now)
	}
	if l.cfg.Oracle == nil {
		if l.cfg.Ident == IdentCrit {
			l.crit.TrainHit(f.U.PC, !f.LL)
		} else {
			l.llpred.Train(f.U.PC, f.LL)
		}
	}
	if l.cfg.Mode.ParksNR() {
		at := now
		if f.MemDone > now+l.cfg.EarlyWakeupLead {
			at = f.MemDone - l.cfg.EarlyWakeupLead
		}
		l.scheduleTicketClear(f, at)
	}
}

// NoteExecDone implements pipeline.Parker: non-memory long-latency
// operations broadcast their ticket when they finish (their latency is
// approximately known, §3.2).
func (l *LTP) NoteExecDone(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Mode.ParksNR() && !f.IsLoad() {
		l.scheduleTicketClear(f, now)
	}
}

// NoteCommit implements pipeline.Parker: under IdentPaper, committed
// long-latency instructions seed the UIT (§5.2 step 1); under
// IdentCrit, the criticality counter is trained by whether the
// instruction blocked retirement (it finished within critCommitSlack
// cycles of committing — the ROB head was waiting on it).
func (l *LTP) NoteCommit(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Oracle == nil {
		if l.cfg.Ident == IdentCrit {
			if f.LL || f.IsLoad() {
				l.crit.TrainCrit(f.U.PC, f.LL && now <= f.DoneAt+critCommitSlack)
			}
		} else if f.LL {
			l.uit.Insert(f.U.PC)
		}
	}
	// Tickets owned by instructions that never fired (e.g. predicted-LL
	// loads that were squashed out of issue) are reclaimed at commit.
	if t, ok := l.ownTicket[f.Seq()]; ok {
		l.clearTicket(t)
	}
}

// NoteSquash implements pipeline.Parker.
func (l *LTP) NoteSquash(p *pipeline.Pipeline, fromSeq uint64, now uint64) {
	// Drop squashed parked instructions.
	w := l.queue[:0]
	for _, f := range l.queue {
		if f.Seq() >= fromSeq {
			if f.IsLoad() {
				l.parkedLoads--
			}
			if f.IsStore() {
				l.parkedStores--
				l.dropParkedStore(f)
			}
			if f.HasDst() {
				l.parkedRegs--
			}
			continue
		}
		w = append(w, f)
	}
	l.queue = w

	// Invalidate RAT extensions written by squashed instructions.
	for i := range l.ext {
		if l.ext[i].valid && l.ext[i].producerSeq >= fromSeq {
			l.ext[i] = ratExt{}
		}
	}

	// Free tickets owned by squashed instructions and broadcast their
	// clears so surviving dependents do not wait forever.
	for t, owner := range l.ticketOwner {
		if owner != ^uint64(0) && owner >= fromSeq {
			l.clearTicket(t)
		}
	}
}

// WarmObserve lets a functional warm-up train the LTP's classification
// tables without running the pipeline; level is the hierarchy level that
// served a memory µop (ignored otherwise). It mirrors what a detailed
// warm-up would plant:
//   - the LL predictor observes each load's service level;
//   - the UIT learns long-latency PCs (commit-time seeding, §5.2 step 1)
//     AND backward-propagates urgency to the producers of urgent
//     instructions' sources — without this second half every address
//     chain feeding a miss would be parked and the misses serialized;
//   - the DRAM-timer monitor's phase is approximated by tracking how
//     recently a DRAM-level demand load occurred (see WarmFinish).
//
// Under oracle classification the tables are bypassed, so nothing warms.
// The µop must not be retained.
func (l *LTP) WarmObserve(u *isa.Uop, level mem.Level) {
	if l.cfg.Oracle != nil {
		return
	}
	l.warmInsts++
	crit := l.cfg.Ident == IdentCrit
	// Backward urgency propagation, as in classifyRealistic.
	urgent := false
	if crit {
		urgent = l.crit.Urgent(u.PC)
	} else {
		urgent = l.uit.Urgent(u.PC)
	}
	if urgent {
		for _, r := range [2]isa.Reg{u.Src1, u.Src2} {
			if r.Valid() && l.ext[r].valid && l.ext[r].producerPC != 0 {
				if crit {
					l.crit.Bump(l.ext[r].producerPC)
				} else {
					l.uit.Insert(l.ext[r].producerPC)
				}
			}
		}
	}
	ll := false
	switch {
	case u.Op == isa.Load:
		ll = level >= mem.LvlL3
		if crit {
			l.crit.TrainHit(u.PC, !ll)
		} else {
			l.llpred.Train(u.PC, ll)
		}
		if ll {
			l.warmLastDRAM = l.warmInsts
			l.warmSawDRAM = true
		}
	case u.Op.IsLongLatencyALU():
		ll = true
	}
	if ll {
		// A functional warm-up has no retirement timing; treat every
		// long-latency PC as critical, as the UIT seeding does — the
		// measured region's commit-blocking outcomes then refine it.
		if crit {
			l.crit.TrainCrit(u.PC, true)
		} else {
			l.uit.Insert(u.PC)
		}
	}
	// Track the latest writer for the propagation above.
	if u.Dst.Valid() {
		e := &l.ext[u.Dst]
		e.valid = true
		e.producerPC = u.PC
		e.producerSeq = u.Seq
		e.tickets = pipeline.TicketMask{}
	}
}

// WarmFinish closes a functional warm-up at cycle now: if a DRAM-level
// load occurred within roughly one DRAM latency of the warm-up's end, the
// monitor starts the measured region enabled, as it would after a detailed
// warm-up.
func (l *LTP) WarmFinish(now uint64) {
	if l.warmSawDRAM && l.warmInsts-l.warmLastDRAM <= 2*l.monitor.latency {
		l.monitor.NoteDemandMiss(now)
	}
}

// ResetStats zeroes the statistics while keeping the queue, tickets, UIT
// and predictor state — the warm-up/measured-region boundary of a
// detailed-warm simulation.
func (l *LTP) ResetStats() {
	l.OccInsts.Reset()
	l.OccRegs.Reset()
	l.OccLoads.Reset()
	l.OccStores.Reset()
	l.ParkedTotal, l.WokenTotal = 0, 0
	l.PressureWakes, l.ForcedParks = 0, 0
	l.ClassUrgent, l.ClassNonReady = 0, 0
	l.TicketsExhausted = 0
	l.Enqueues, l.Dequeues = 0, 0
	l.monitor.EnabledCycles, l.monitor.TotalCycles = 0, 0
	l.llpred.Predictions, l.llpred.PredictedLL, l.llpred.Correct = 0, 0, 0
}

// NoteCycle implements pipeline.Parker.
func (l *LTP) NoteCycle(p *pipeline.Pipeline, now uint64) {
	l.monitor.Tick(now)
	l.OccInsts.Add(float64(len(l.queue)))
	l.OccRegs.Add(float64(l.parkedRegs))
	l.OccLoads.Add(float64(l.parkedLoads))
	l.OccStores.Add(float64(l.parkedStores))
	l.enqThisCycle = 0
	l.deqThisCycle = 0
}

var _ pipeline.Parker = (*LTP)(nil)
