package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolExecutesAll checks every submitted job runs exactly once and
// Close drains the queue.
func TestPoolExecutesAll(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		p := NewPool(workers)
		const n = 100
		var counts [n]int32
		for i := 0; i < n; i++ {
			i := i
			p.SubmitCtx(context.Background(), TierInteractive, float64(i%7), func(context.Context) { atomic.AddInt32(&counts[i], 1) })
		}
		p.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestPoolLPTOrder checks a single worker drains a pre-filled queue in
// descending cost order with FIFO ties.
func TestPoolLPTOrder(t *testing.T) {
	p := NewPool(1)
	var mu sync.Mutex
	var got []int

	// Occupy the worker so the queue fills before dispatch starts.
	gate := make(chan struct{})
	p.SubmitCtx(context.Background(), TierInteractive, 100, func(context.Context) { <-gate })

	costs := []float64{1, 5, 3, 5, 2}
	for i, c := range costs {
		i := i
		p.SubmitCtx(context.Background(), TierInteractive, c, func(context.Context) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	}
	close(gate)
	p.Close()

	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestPoolConcurrentProducers checks many goroutines can submit to one
// pool — the campaign service's shape — without loss or race.
func TestPoolConcurrentProducers(t *testing.T) {
	p := NewPool(4)
	var done atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.SubmitCtx(context.Background(), TierInteractive, float64(j), func(context.Context) { done.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	if done.Load() != 8*50 {
		t.Fatalf("ran %d jobs; want %d", done.Load(), 8*50)
	}
}

// TestPoolTierPreemptsQueue checks the v2 priority contract: an
// interactive job submitted after a pile of queued campaign cells
// dispatches before every one of them, whatever their costs.
func TestPoolTierPreemptsQueue(t *testing.T) {
	p := NewPool(1)
	var mu sync.Mutex
	var got []string

	gate := make(chan struct{})
	p.SubmitCtx(context.Background(), TierCampaign, 100, func(context.Context) { <-gate })

	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		p.SubmitCtx(context.Background(), TierCampaign, float64(10-i), func(context.Context) {
			mu.Lock()
			got = append(got, "campaign:"+name)
			mu.Unlock()
		})
	}
	p.SubmitCtx(context.Background(), TierInteractive, 0.1, func(context.Context) {
		mu.Lock()
		got = append(got, "interactive")
		mu.Unlock()
	})
	close(gate)
	p.Close()

	if len(got) != 6 || got[0] != "interactive" {
		t.Fatalf("dispatch order %v; want the interactive job first", got)
	}
}

// TestPoolDeliversCancelledCtx checks a job whose context is dead by
// dispatch time still runs exactly once, observing the cancelled
// context (the completion-signalling contract).
func TestPoolDeliversCancelledCtx(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	p.SubmitCtx(context.Background(), TierInteractive, 1, func(context.Context) { <-gate })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawDead := make(chan bool, 1)
	p.SubmitCtx(ctx, TierCampaign, 1, func(c context.Context) { sawDead <- c.Err() != nil })
	close(gate)
	p.Close()
	if !<-sawDead {
		t.Fatal("job dispatched with a live context; want the cancelled one delivered")
	}
}

// TestPoolSubmitAfterCloseRunsInline documents the degraded-mode
// contract: a submission racing a shutdown still executes (on the
// caller's goroutine) rather than panicking or being dropped.
func TestPoolSubmitAfterCloseRunsInline(t *testing.T) {
	p := NewPool(1)
	p.Close()
	ran := false
	p.SubmitCtx(context.Background(), TierInteractive, 1, func(context.Context) { ran = true })
	if !ran {
		t.Fatal("SubmitCtx after Close neither ran the job nor panicked")
	}
}

// TestPoolRunBatchFromWorker checks work helping: a job occupying the
// only worker of a single-worker pool fans out a batch and completes —
// the caller executes the subtasks itself instead of deadlocking.
func TestPoolRunBatchFromWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	const n = 8
	var ran [n]int32
	done := make(chan struct{})
	p.SubmitCtx(context.Background(), TierInteractive, 1, func(ctx context.Context) {
		fns := make([]func(context.Context), n)
		costs := make([]float64, n)
		for i := 0; i < n; i++ {
			i := i
			costs[i] = float64(i)
			fns[i] = func(context.Context) { atomic.AddInt32(&ran[i], 1) }
		}
		p.RunBatch(ctx, TierInteractive, costs, fns)
		close(done)
	})
	<-done
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("subtask %d ran %d times", i, c)
		}
	}
}

// TestPoolRunBatchShared checks idle workers steal batch subtasks: on
// a multi-worker pool a batch submitted from outside completes with
// every subtask running exactly once even while other jobs flow.
func TestPoolRunBatchShared(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	var extra int32
	for i := 0; i < 10; i++ {
		p.SubmitCtx(context.Background(), TierInteractive, 1, func(context.Context) { atomic.AddInt32(&extra, 1) })
	}
	const n = 32
	var ran [n]int32
	fns := make([]func(context.Context), n)
	for i := 0; i < n; i++ {
		i := i
		fns[i] = func(context.Context) { atomic.AddInt32(&ran[i], 1) }
	}
	p.RunBatch(context.Background(), TierCampaign, nil, fns)
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("subtask %d ran %d times", i, c)
		}
	}
}

// TestPoolRunBatchClosed checks the closed-pool degenerate path: the
// batch runs inline on the caller, sequentially, exactly once each.
func TestPoolRunBatchClosed(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var order []int
	fns := make([]func(context.Context), 5)
	for i := range fns {
		i := i
		fns[i] = func(context.Context) { order = append(order, i) }
	}
	p.RunBatch(context.Background(), TierInteractive, nil, fns)
	if len(order) != 5 {
		t.Fatalf("ran %d subtasks, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("closed-pool batch ran out of order: %v", order)
		}
	}
}

// TestPoolRunBatchEmpty checks the zero-subtask batch returns at once.
func TestPoolRunBatchEmpty(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.RunBatch(context.Background(), TierInteractive, nil, nil)
}
