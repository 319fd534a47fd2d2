package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// fairPool builds a pool over an empty engine: batches carry a tuple count
// but no tasks, so Dispatch applies them synchronously in the dispatcher
// goroutine — drain order is exactly dispatch order.
func fairPool(t *testing.T) *Pool {
	t.Helper()
	p, err := New(query.NewEngine(testSchema(t)), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// planN plans a batch of n empty tuples (cost n, no estimator work).
func planN(p *Pool, n int) *Batch {
	return p.Plan(make([]stream.Tuple, n))
}

// TestFairDRRWeights saturates two lanes with equal-cost batches and
// checks the drained share tracks the 3:1 dispatch weights.
func TestFairDRRWeights(t *testing.T) {
	// Quantum 64 = one batch of credit per weight unit per round; deep
	// backlogged lanes make the credit (not the backlog) the binding
	// constraint, which is where the weights bite.
	f := NewFair(64)
	var a, b atomic.Int64
	counts := map[string]*atomic.Int64{"a": &a, "b": &b}
	var dispatched atomic.Int64
	const observe = 400
	f.afterDispatch = func(l *Lane, _ int) {
		if dispatched.Add(1) <= observe {
			counts[l.Name()].Add(1)
		}
		// Throttle the dispatcher so the blocking producers keep both
		// lanes backlogged — the regime DRR's guarantee speaks to.
		time.Sleep(50 * time.Microsecond)
	}
	la := f.AddLane("a", 3, 32, fairPool(t), nil)
	lb := f.AddLane("b", 1, 32, fairPool(t), nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, l := range []*Lane{la, lb} {
		wg.Add(1)
		go func(l *Lane) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Enqueue(planN(l.Pool(), 64))
			}
		}(l)
	}
	for dispatched.Load() < observe {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	f.Close()
	wg.Wait()

	got := float64(a.Load()) / float64(b.Load())
	if got < 2.0 || got > 4.5 {
		t.Fatalf("drain ratio a:b = %d:%d = %.2f, want ~3.0", a.Load(), b.Load(), got)
	}
}

// TestFairEqualShareUnderSkewedLoad offers 10:1 load on equal weights: the
// flooding lane must not push the steady lane below ~half the drained
// batches. This is the noisy-neighbor property at the dispatch layer.
func TestFairEqualShareUnderSkewedLoad(t *testing.T) {
	f := NewFair(256)
	var flood, steady atomic.Int64
	counts := map[string]*atomic.Int64{"flood": &flood, "steady": &steady}
	var dispatched atomic.Int64
	const observe = 400
	f.afterDispatch = func(l *Lane, _ int) {
		if dispatched.Add(1) <= observe {
			counts[l.Name()].Add(1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	lf := f.AddLane("flood", 1, 8, fairPool(t), nil)
	ls := f.AddLane("steady", 1, 8, fairPool(t), nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	producer := func(l *Lane, conns int) {
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					l.Enqueue(planN(l.Pool(), 64))
				}
			}()
		}
	}
	producer(lf, 10) // 10× the offered load...
	producer(ls, 1)  // ...but the same dispatch weight.
	for dispatched.Load() < observe {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	f.Close()
	wg.Wait()

	got := float64(steady.Load()) / float64(flood.Load()+steady.Load())
	if got < 0.35 {
		t.Fatalf("steady lane drained share %.2f (%d of %d), want ~0.5 despite 10:1 offered load",
			got, steady.Load(), flood.Load()+steady.Load())
	}
}

// TestFairLaneOrderAndBounds pins the contracts the server depends on:
// per-lane FIFO dispatch order (the bit-identity prerequisite), TryEnqueue
// refusing at capacity, and RemoveLane/Close draining what was admitted.
func TestFairLaneOrderAndBounds(t *testing.T) {
	f := NewFair(0)
	var mu sync.Mutex
	var order []int
	f.afterDispatch = func(_ *Lane, tuples int) {
		mu.Lock()
		order = append(order, tuples)
		mu.Unlock()
	}
	p := fairPool(t)
	l := f.AddLane("t", 1, 1000, p, nil)
	const n = 200
	for i := 1; i <= n; i++ {
		if _, ok := l.Enqueue(planN(p, i)); !ok {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	f.RemoveLane(l)
	mu.Lock()
	if len(order) != n {
		t.Fatalf("dispatched %d batches, want %d", len(order), n)
	}
	for i, tuples := range order {
		if tuples != i+1 {
			t.Fatalf("batch %d dispatched with %d tuples, want %d (FIFO violated)", i, tuples, i+1)
		}
	}
	mu.Unlock()
	if l.HighWater() == 0 {
		t.Fatal("high-water mark never advanced")
	}
	if _, ok := l.Enqueue(planN(p, 1)); ok {
		t.Fatal("removed lane accepted a batch")
	}
	if _, ok := l.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("removed lane accepted a batch")
	}

	// A capacity-1 lane refuses the second TryEnqueue while the dispatcher
	// is held off the first.
	f2 := NewFair(0)
	gate := make(chan struct{})
	f2.afterDispatch = func(*Lane, int) { <-gate }
	l2 := f2.AddLane("t", 1, 1, p, nil)
	if _, ok := l2.TryEnqueue(planN(p, 1)); !ok {
		t.Fatal("first TryEnqueue refused")
	}
	refused := false
	for i := 0; i < 100 && !refused; i++ {
		_, ok := l2.TryEnqueue(planN(p, 1))
		refused = !ok
	}
	close(gate)
	f2.Close()
	if !refused {
		t.Fatal("full lane never refused TryEnqueue")
	}
	if _, ok := l2.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("closed dispatcher accepted a batch")
	}
}

// TestFairAfterHook checks the per-lane after hook runs in the dispatcher
// goroutine after each batch — the periodic-checkpoint seam — by having it
// Fence the lane's pool, which is only legal from the dispatching
// goroutine.
func TestFairAfterHook(t *testing.T) {
	f := NewFair(0)
	p := fairPool(t)
	var fenced atomic.Int64
	l := f.AddLane("t", 1, 16, p, func(_ obs.Link, tuples int, _ time.Time) {
		p.Fence()
		fenced.Add(1)
	})
	for i := 0; i < 10; i++ {
		l.Enqueue(planN(p, 8))
	}
	f.Close()
	if fenced.Load() != 10 {
		t.Fatalf("after hook ran %d times, want 10", fenced.Load())
	}
}
