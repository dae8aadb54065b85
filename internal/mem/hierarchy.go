package mem

import "fmt"

// Config describes the cache hierarchy (defaults mirror the paper's
// Table 1: 32 kB 8-way L1s at 4 cycles, 256 kB 8-way L2 at 12 cycles with a
// degree-4 stride prefetcher, 1 MB 16-way L3 at 36 cycles, DDR3-1600-class
// DRAM).
type Config struct {
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	L3Size, L3Ways   int

	L1Latency   uint64
	L2Latency   uint64 // cumulative from issue
	L3Latency   uint64 // cumulative from issue
	DRAMLatency uint64 // cumulative from issue (fixed-latency model)

	// DRAM, when non-nil, replaces the fixed DRAMLatency with the banked
	// DDR3 model (row buffers, bank queueing, bus contention).
	DRAM *DRAMConfig

	// L1DMSHRs bounds outstanding L1D load misses (<=0 = unlimited; the
	// limit study uses unlimited).
	L1DMSHRs int
	// L2MSHRs bounds outstanding L2 misses, shared by demands and
	// prefetches (<=0 = unlimited).
	L2MSHRs int

	// PrefetchDegree is the L2 prefetch degree: how many lines ahead the
	// engine fetches (with the legacy "" Prefetcher, 0 disables it).
	PrefetchDegree int
	// PrefetchTable is the prefetcher training-table size (power of two).
	PrefetchTable int
	// Prefetcher names the L2 prefetch engine from the registry
	// ("none", "nextline", "stride", "stream"). Empty keeps the legacy
	// convention: the stride engine when PrefetchDegree > 0, else none.
	Prefetcher string

	// TagEarlyLead is how many cycles before the fill the phased L2/L3
	// tag arrays (or the DRAM controller) can signal that data is coming;
	// used by LTP's Non-Ready early wakeup (paper §3.2 / Appendix).
	TagEarlyLead uint64
}

// DefaultConfig returns the Table 1 hierarchy.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 8,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 1 << 20, L3Ways: 16,
		L1Latency:      4,
		L2Latency:      12,
		L3Latency:      36,
		DRAMLatency:    200, // DDR3-1600 11-11-11 + controller, at 3.4 GHz
		L1DMSHRs:       16,
		L2MSHRs:        32,
		PrefetchDegree: 4,
		PrefetchTable:  256,
		TagEarlyLead:   6,
	}
}

// Validate reports the first structural error NewHierarchy would panic
// on: a cache level whose size and associativity do not give a positive
// power-of-two set count, a banked DRAM whose bank count or row size is
// not a positive power of two, or an unknown prefetcher or a training
// table that is not a power of two.
func (c Config) Validate() error {
	for _, lvl := range []struct {
		name       string
		size, ways int
	}{
		{"L1I", c.L1ISize, c.L1IWays},
		{"L1D", c.L1DSize, c.L1DWays},
		{"L2", c.L2Size, c.L2Ways},
		{"L3", c.L3Size, c.L3Ways},
	} {
		if lvl.ways <= 0 || !isPow2(lvl.size/(lvl.ways*LineBytes)) {
			return fmt.Errorf("mem: %s of %d bytes, %d ways has no power-of-two set count", lvl.name, lvl.size, lvl.ways)
		}
	}
	if c.DRAM != nil {
		if !isPow2(c.DRAM.Banks) {
			return fmt.Errorf("mem: DRAM bank count %d is not a positive power of two", c.DRAM.Banks)
		}
		if !isPow2(c.DRAM.RowBytes) {
			return fmt.Errorf("mem: DRAM row size %d is not a positive power of two", c.DRAM.RowBytes)
		}
	}
	name := c.PrefetcherName()
	if (name == "stride" || name == "stream") && c.PrefetchTable != 0 && !isPow2(c.PrefetchTable) {
		return fmt.Errorf("mem: prefetcher table size %d is not a power of two", c.PrefetchTable)
	}
	_, err := NewPrefetcher(name, c.PrefetchTable, c.PrefetchDegree)
	return err
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Result describes one memory access's timing.
type Result struct {
	// Avail is the cycle the data is available to dependents.
	Avail uint64
	// Level is the hierarchy level that satisfied the access.
	Level Level
	// Merged reports that the access merged onto an in-flight fill.
	Merged bool
}

// Latency returns the access latency given its issue cycle.
func (r Result) Latency(issued uint64) uint64 {
	if r.Avail < issued {
		return 0
	}
	return r.Avail - issued
}

// Hierarchy is the full cache/DRAM stack for one core.
type Hierarchy struct {
	cfg  Config
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	L3   *Cache
	l1m  *MSHRs
	l2m  *MSHRs
	pref Prefetcher
	dram *DRAM // nil = fixed-latency model
	cors []corunner

	// outstanding demand DRAM fills, for the MLP statistic
	// (average number of outstanding memory requests, paper Fig. 1b).
	demandEnds []uint64

	// Statistics.
	Loads, Stores   uint64
	LoadLevel       [NumLevels]uint64
	StoreLevel      [NumLevels]uint64
	LoadLatencySum  uint64
	DemandDRAM      uint64
	PrefetchIssued  uint64
	PrefetchDropped uint64

	// Co-runner traffic statistics (zero without co-runners).
	CorunnerAccesses uint64
	CorunnerDRAM     uint64
	CorunnerStalls   uint64
}

// NewHierarchy builds the stack from a Config.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		L1I: NewCache("L1I", cfg.L1ISize, cfg.L1IWays, cfg.L1Latency),
		L1D: NewCache("L1D", cfg.L1DSize, cfg.L1DWays, cfg.L1Latency),
		L2:  NewCache("L2", cfg.L2Size, cfg.L2Ways, cfg.L2Latency),
		L3:  NewCache("L3", cfg.L3Size, cfg.L3Ways, cfg.L3Latency),
		l1m: NewMSHRs(cfg.L1DMSHRs),
		l2m: NewMSHRs(cfg.L2MSHRs),
	}
	pf, err := NewPrefetcher(cfg.PrefetcherName(), cfg.PrefetchTable, cfg.PrefetchDegree)
	if err != nil {
		panic("mem: " + err.Error()) // names are validated at spec admission
	}
	h.pref = pf
	if cfg.DRAM != nil {
		h.dram = NewDRAM(*cfg.DRAM)
	}
	return h
}

// DRAMModel exposes the banked DRAM (nil under the fixed-latency model).
func (h *Hierarchy) DRAMModel() *DRAM { return h.dram }

// dramFill returns the completion cycle of a main-memory fill issued now.
func (h *Hierarchy) dramFill(la, now uint64) uint64 {
	if h.dram != nil {
		return h.dram.Access(la<<LineShift, now)
	}
	return now + h.cfg.DRAMLatency
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// PrefetcherName resolves the configured prefetcher name: an explicit
// name wins; the legacy empty name means the Table 1 stride engine when
// PrefetchDegree > 0 and "none" otherwise.
func (c Config) PrefetcherName() string {
	if c.Prefetcher != "" {
		return c.Prefetcher
	}
	if c.PrefetchDegree > 0 {
		return DefaultPrefetcher
	}
	return "none"
}

// walkBelowL1 resolves a miss below the L1s: it consults the L2 (training
// the prefetcher on demand loads), then the L3, then DRAM, allocating the
// line inclusively on the way back. It returns the fill and whether it
// could be issued (false only when demand and the L2 MSHRs are full).
func (h *Hierarchy) walkBelowL1(pc, la, now uint64, demandLoad, isStore bool) (Result, bool) {
	// L2 access.
	if hit, avail := h.L2.Lookup(la, now); hit {
		if h.pref != nil && demandLoad {
			h.prefetchAfter(pc, la, now)
		}
		return Result{Avail: avail, Level: LvlL2}, true
	}
	if h.pref != nil && demandLoad {
		h.prefetchAfter(pc, la, now)
	}
	// L2 miss: merge or allocate an L2 MSHR.
	if t, lvl, ok := h.l2m.Lookup(la, now); ok {
		return Result{Avail: t, Level: lvl, Merged: true}, true
	}
	var fill uint64
	var lvl Level
	if hit, avail := h.L3.Lookup(la, now); hit {
		fill, lvl = avail, LvlL3
	} else {
		fill, lvl = h.dramFill(la, now), LvlDRAM
	}
	if !h.l2m.Allocate(la, fill, now, lvl) {
		if demandLoad || isStore {
			// Demand path retries; callers treat !ok as a structural stall.
			return Result{}, false
		}
		return Result{}, false
	}
	// Inclusive fills.
	h.L2.Insert(la, fill, isStore, false)
	if lvl == LvlDRAM {
		h.L3.Insert(la, fill, false, false)
		if demandLoad {
			h.DemandDRAM++
			h.demandEnds = append(h.demandEnds, fill)
		}
	}
	return Result{Avail: fill, Level: lvl}, true
}

// prefetchAfter trains the stride prefetcher with a demand access and
// issues its prefetches into the L2 (and L3 on DRAM fills). Prefetches
// never block demands: they are dropped when the L2 MSHRs are busy.
func (h *Hierarchy) prefetchAfter(pc, la, now uint64) {
	for _, pa := range h.pref.Observe(pc, la<<LineShift) {
		pla := LineAddr(pa)
		if h.L2.Probe(pla) {
			continue
		}
		if _, _, ok := h.l2m.Lookup(pla, now); ok {
			continue
		}
		var fill uint64
		var lvl Level
		if h.L3.Probe(pla) {
			fill, lvl = now+h.cfg.L3Latency, LvlL3
		} else {
			fill, lvl = h.dramFill(pla, now), LvlDRAM
		}
		if !h.l2m.Allocate(pla, fill, now, lvl) {
			h.PrefetchDropped++
			continue
		}
		h.PrefetchIssued++
		h.L2.Insert(pla, fill, false, true)
		if lvl == LvlDRAM {
			h.L3.Insert(pla, fill, false, true)
		}
	}
}

// Load performs a demand data load issued at cycle now by the instruction
// at pc. ok=false means the access could not start (MSHRs full) and must be
// replayed.
func (h *Hierarchy) Load(pc, addr, now uint64) (Result, bool) {
	la := LineAddr(addr)
	if hit, avail := h.L1D.Lookup(la, now); hit {
		h.recordLoad(Result{Avail: avail, Level: LvlL1}, now)
		return Result{Avail: avail, Level: LvlL1}, true
	}
	// L1D miss: merge onto an outstanding fill if possible.
	if t, lvl, ok := h.l1m.Lookup(la, now); ok {
		r := Result{Avail: t, Level: lvl, Merged: true}
		h.recordLoad(r, now)
		return r, true
	}
	if !h.l1m.Free(now) {
		return Result{}, false
	}
	r, ok := h.walkBelowL1(pc, la, now, true, false)
	if !ok {
		return Result{}, false
	}
	if !h.l1m.Allocate(la, r.Avail, now, r.Level) {
		return Result{}, false
	}
	h.L1D.Insert(la, r.Avail, false, false)
	h.recordLoad(r, now)
	return r, true
}

func (h *Hierarchy) recordLoad(r Result, now uint64) {
	h.Loads++
	h.LoadLevel[r.Level]++
	h.LoadLatencySum += r.Latency(now)
}

// StoreCommit performs the cache write for a store draining from the store
// queue after commit (write-back, write-allocate). Store misses use the
// write buffer path and are never refused; they do, however, occupy L2
// MSHR-tracked fills so later loads merge correctly.
func (h *Hierarchy) StoreCommit(addr, now uint64) Result {
	h.Stores++
	la := LineAddr(addr)
	if hit, avail := h.L1D.Lookup(la, now); hit {
		h.L1D.MarkDirty(la)
		h.StoreLevel[LvlL1]++
		return Result{Avail: avail, Level: LvlL1}
	}
	if t, lvl, ok := h.l1m.Lookup(la, now); ok {
		h.L1D.MarkDirty(la) // line may not be resident yet; harmless
		h.StoreLevel[lvl]++
		return Result{Avail: t, Level: lvl, Merged: true}
	}
	r, ok := h.walkBelowL1(0, la, now, false, true)
	if !ok {
		// MSHRs exhausted: model the write buffer absorbing the store at
		// DRAM latency without tracking the fill.
		r = Result{Avail: now + h.cfg.DRAMLatency, Level: LvlDRAM}
	}
	h.L1D.Insert(la, r.Avail, true, false)
	h.StoreLevel[r.Level]++
	return r
}

// FetchInst performs an instruction fetch for the line containing addr.
// Instruction fetches never consume data MSHRs; a simple next-line
// prefetch keeps sequential code flowing.
func (h *Hierarchy) FetchInst(addr, now uint64) Result {
	la := LineAddr(addr)
	if hit, avail := h.L1I.Lookup(la, now); hit {
		return Result{Avail: avail, Level: LvlL1}
	}
	r, ok := h.walkBelowL1(0, la, now, false, false)
	if !ok {
		r = Result{Avail: now + h.cfg.DRAMLatency, Level: LvlDRAM}
	}
	h.L1I.Insert(la, r.Avail, false, false)
	// Next-line instruction prefetch.
	nla := la + 1
	if !h.L1I.Probe(nla) {
		if nr, ok := h.walkBelowL1(0, nla, now, false, false); ok {
			h.L1I.Insert(nla, nr.Avail, false, true)
		}
	}
	return r
}

// OutstandingDemand returns the number of demand DRAM requests in flight at
// cycle now, compacting finished entries as it goes.
func (h *Hierarchy) OutstandingDemand(now uint64) int {
	n := 0
	w := h.demandEnds[:0]
	for _, end := range h.demandEnds {
		if end > now {
			n++
			w = append(w, end)
		}
	}
	h.demandEnds = w
	return n
}

// AvgLoadLatency returns the mean demand load latency in cycles.
func (h *Hierarchy) AvgLoadLatency() float64 {
	if h.Loads == 0 {
		return 0
	}
	return float64(h.LoadLatencySum) / float64(h.Loads)
}

// Warm performs a timing-free access used for cache warm-up before
// detailed simulation (the paper warms caches for 250 M instructions). It
// returns the hierarchy level that would have served the access, so
// warm-up hooks (e.g. the LTP's classification tables) can observe each
// access's latency class without any timing model.
func (h *Hierarchy) Warm(pc, addr uint64, isStore bool) Level {
	la := LineAddr(addr)
	served := LvlL1
	if hit, _ := h.L1D.Lookup(la, 0); hit {
		if isStore {
			h.L1D.MarkDirty(la)
		}
		return served
	}
	if hit, _ := h.L2.Lookup(la, 0); hit {
		served = LvlL2
	} else {
		if hit3, _ := h.L3.Lookup(la, 0); hit3 {
			served = LvlL3
		} else {
			served = LvlDRAM
			h.L3.Insert(la, 0, false, false)
		}
		h.L2.Insert(la, 0, false, false)
	}
	if h.pref != nil && !isStore {
		for _, pa := range h.pref.Observe(pc, la<<LineShift) {
			pla := LineAddr(pa)
			if !h.L2.Probe(pla) {
				h.L2.Insert(pla, 0, false, true)
				if !h.L3.Probe(pla) {
					h.L3.Insert(pla, 0, false, true)
				}
			}
		}
	}
	h.L1D.Insert(la, 0, isStore, false)
	return served
}

// WarmFetch installs the instruction line containing addr throughout the
// hierarchy with no timing (code warm-up before detailed simulation).
func (h *Hierarchy) WarmFetch(addr uint64) {
	la := LineAddr(addr)
	if !h.L3.Probe(la) {
		h.L3.Insert(la, 0, false, false)
	}
	if !h.L2.Probe(la) {
		h.L2.Insert(la, 0, false, false)
	}
	if !h.L1I.Probe(la) {
		h.L1I.Insert(la, 0, false, false)
	}
}

// TagEarlyLead returns the configured early-wakeup lead time.
func (h *Hierarchy) TagEarlyLead() uint64 { return h.cfg.TagEarlyLead }

// ResetStats zeroes all access statistics while keeping cache contents,
// MSHR state and prefetcher training — the warm-up/measured-region
// boundary of a detailed-warm simulation.
func (h *Hierarchy) ResetStats() {
	h.Loads, h.Stores = 0, 0
	h.LoadLevel = [NumLevels]uint64{}
	h.StoreLevel = [NumLevels]uint64{}
	h.LoadLatencySum = 0
	h.DemandDRAM = 0
	h.PrefetchIssued, h.PrefetchDropped = 0, 0
	h.CorunnerAccesses, h.CorunnerDRAM, h.CorunnerStalls = 0, 0, 0
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		c.ResetStats()
	}
	h.l1m.Merges, h.l1m.FullStall = 0, 0
	h.l2m.Merges, h.l2m.FullStall = 0, 0
}
