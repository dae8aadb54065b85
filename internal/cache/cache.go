package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Outcome reports how a Do call was served.
type Outcome uint8

const (
	// Miss: the value was not cached and not in flight; this call
	// computed it.
	Miss Outcome = iota
	// Hit: the value was served from the cache without computing.
	Hit
	// Shared: an identical computation was already in flight; this
	// call blocked on it and shares its result.
	Shared
	// StoreHit: the value was not in memory but the backing layer had
	// it; this call loaded it without computing.
	StoreHit
)

var outcomeNames = map[Outcome]string{Miss: "miss", Hit: "hit", Shared: "shared", StoreHit: "store"}

// String returns "miss", "hit", "shared" or "store".
func (o Outcome) String() string { return outcomeNames[o] }

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls served from the stored set.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that computed (each is one real
	// simulation); Misses is therefore the number of distinct cells
	// ever executed through the cache.
	Misses uint64 `json:"misses"`
	// Shared counts Do calls that joined an in-flight computation.
	Shared uint64 `json:"shared"`
	// StoreHits counts Do calls resolved from the backing layer —
	// loaded, not computed, so they are not Misses.
	StoreHits uint64 `json:"store_hits"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Len is the current number of stored entries.
	Len int `json:"len"`
	// Cap is the LRU bound.
	Cap int `json:"cap"`
}

// Backing is an optional second-level result source behind the
// in-memory map — typically a persistent internal/store adapter.
// Lookup returns the value for a key (ok = found); Store persists a
// freshly computed value. Both are called from flight goroutines under
// the cache's single-flight guarantee — at most one concurrent call
// per key — but possibly concurrently across keys, so implementations
// must be safe for concurrent use. A Lookup miss falls through to
// compute; a Store failure is the implementation's to absorb (the
// in-memory result already serves every waiter).
type Backing interface {
	Lookup(key string) (any, bool)
	Store(key string, val any)
}

// Cache is a bounded LRU map with context-aware single-flight
// population and an optional persistent backing tier: Do consults
// memory, then the backing layer, then computes — all under one
// flight per key. The zero value is not usable; use New.
type Cache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List               // front = most recently used
	items    map[string]*list.Element // value: *entry
	inflight map[string]*flight
	backing  Backing
	stats    Stats
}

type entry struct {
	key string
	val any
}

// flight is one in-progress computation. Waiters (including the caller
// that started it) are refcounted: a waiter whose own context dies
// detaches, and the last detaching waiter cancels the compute context,
// so abandoned work is reclaimed while any surviving waiter keeps the
// computation alive. A cancelled flight stores nothing — the entry can
// never be poisoned by cancellation.
type flight struct {
	done    chan struct{}
	ctx     context.Context // the compute's context
	cancel  context.CancelFunc
	waiters int // guarded by Cache.mu
	val     any
	err     error
	// abandoned records whether the compute context was already
	// cancelled when the computation resolved (written before done
	// closes, read after — the channel close orders it). It
	// distinguishes "every waiter walked away" from a real compute
	// error, because cancel() also runs post-completion to release the
	// context's resources.
	abandoned bool
	// fromBacking records that the value was loaded from the backing
	// layer rather than computed (same write-before-close ordering as
	// abandoned). The initiating waiter reports StoreHit instead of
	// Miss; joiners still report Shared.
	fromBacking bool
}

// DefaultEntries is the LRU bound New applies when given capacity <= 0.
const DefaultEntries = 4096

// New returns a cache bounded to the given number of entries
// (<= 0 = DefaultEntries).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	return &Cache{
		cap:      capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the cached value for key, marking it most recently used.
// It does not join in-flight computations and does not count toward
// the hit/miss counters (use Do for the accounted path).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Do returns the value for key, computing it with compute if needed.
// Exactly one concurrent caller per key computes (on its own
// goroutine, under a context owned by the flight); the others block
// and share the outcome. With a Backing attached, the flight consults
// it before computing — memory, then store, then compute, all under
// the same single flight — and persists a computed success to it. A
// compute error is returned to every waiter and nothing is stored (in
// memory or backing), so a later Do retries.
//
// ctx bounds this call's wait, not the computation: when ctx dies the
// call detaches and returns ctx's error, while the computation keeps
// running for any other waiter. Only when every waiter has detached is
// the compute context cancelled, and the last waiter returns only once
// compute has — so compute must observe it and return promptly, at
// once if its work is still queued rather than running. A caller that
// joins a flight in the instant it is being cancelled retries against
// a fresh flight rather than surfacing the other waiters' abandonment.
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, Outcome, error) {
	for {
		v, outcome, err, retry := c.doOnce(ctx, key, compute)
		if !retry {
			return v, outcome, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, outcome, cerr
		}
	}
}

// doOnce runs one hit/join/compute attempt. retry reports that the
// joined flight was cancelled by its other waiters and the caller
// should start over.
func (c *Cache) doOnce(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, Outcome, error, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, Hit, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.stats.Shared++
		c.mu.Unlock()
		return c.wait(ctx, f, Shared)
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), ctx: fctx, cancel: cancel, waiters: 1}
	c.inflight[key] = f
	// Miss vs StoreHit is only known once the flight resolves (the
	// backing layer is consulted on the flight goroutine), so the
	// counter is bumped there, not here.
	c.mu.Unlock()

	go c.run(key, f, compute)
	return c.wait(ctx, f, Miss)
}

// run executes one flight's resolution: backing lookup first, compute
// on a backing miss. A panicking compute (or backing Lookup) becomes
// the flight's error (every waiter sees it; nothing is stored) instead
// of killing the process from a naked goroutine.
func (c *Cache) run(key string, f *flight, compute func(context.Context) (any, error)) {
	b := c.getBacking()
	defer func() {
		if p := recover(); p != nil {
			f.val, f.err = nil, fmt.Errorf("cache: computation for %q panicked: %v", key, p)
		}
		f.abandoned = f.ctx.Err() != nil
		c.mu.Lock()
		delete(c.inflight, key)
		if f.fromBacking {
			c.stats.StoreHits++
		} else {
			c.stats.Misses++
		}
		if f.err == nil {
			c.store(key, f.val)
		}
		c.mu.Unlock()
		// Persist a genuinely computed success before the waiters wake:
		// a Do returning means the result is durable, and a failed or
		// store-served flight must never append. The write happens off
		// the cache mutex — it is disk I/O.
		if f.err == nil && !f.fromBacking && b != nil {
			storeBacking(b, key, f.val)
		}
		close(f.done)
		f.cancel() // release the flight context's resources
	}()
	if b != nil {
		if v, ok := b.Lookup(key); ok {
			f.val, f.fromBacking = v, true
			return
		}
	}
	f.val, f.err = compute(f.ctx)
}

// storeBacking shields the resolution path from a panicking Backing
// implementation (the deferred recover above has already fired).
func storeBacking(b Backing, key string, val any) {
	defer func() { recover() }()
	b.Store(key, val)
}

// SetBacking attaches (or, with nil, detaches) the persistent tier.
// Set it before the cache sees traffic; in-flight computations sample
// the backing at flight start.
func (c *Cache) SetBacking(b Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backing = b
}

func (c *Cache) getBacking() Backing {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backing
}

// wait blocks on the flight until it resolves or ctx dies.
func (c *Cache) wait(ctx context.Context, f *flight, outcome Outcome) (any, Outcome, error, bool) {
	select {
	case <-f.done:
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			f.cancel()
			if f.ctx.Err() != nil {
				// The computation is cancelled for good (no waiter left,
				// and for a batch lane no live sibling lane either): see
				// it wind down, so abandoned work has stopped — and been
				// counted — by the time its last caller returns.
				<-f.done
			}
		}
		return nil, outcome, ctx.Err(), false
	}
	if f.err != nil && f.abandoned {
		// The flight was cancelled after every then-current waiter
		// detached; this caller raced in as the cancel landed. Its own
		// context is (presumably) live, so retry with a fresh flight.
		return nil, outcome, f.err, true
	}
	if outcome == Miss && f.fromBacking {
		// The flight this caller started was served by the backing
		// layer, not computed; joiners keep reporting Shared.
		outcome = StoreHit
	}
	return f.val, outcome, f.err, false
}

// store inserts or refreshes key (caller holds mu).
func (c *Cache) store(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Len = c.order.Len()
	s.Cap = c.cap
	return s
}
