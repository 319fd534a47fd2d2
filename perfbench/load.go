package main

import (
	"sync"
	"time"
)

// sendFunc sends batch i and returns a function that blocks until the
// batch is acknowledged.
type sendFunc func(i int) (wait func() error, err error)

// batchTimes is one batch's timeline. Due is when the generator meant to
// send it; Sent is when the send call returned; Acked is when the ack
// arrived.
type batchTimes struct {
	Due, Sent, Acked time.Time
	Err              error
}

// ackLatency is the batch's latency counted from when it was due, so a
// stall that delays later sends is charged to the batches it delayed.
func (b batchTimes) ackLatency() time.Duration { return b.Acked.Sub(b.Due) }

// sendLag is how late the generator finished sending the batch.
func (b batchTimes) sendLag() time.Duration { return b.Sent.Sub(b.Due) }

// runLoop drives batches 0..n-1 through send on one connection.
//
// With interval > 0 it is an open loop: batch i is due at start+i*interval
// whatever the server does, and is sent then, or at once when the
// generator is already late. With interval == 0 it is a closed loop with
// up to window batches in flight: a batch is due when a window slot frees.
//
// A second goroutine awaits the acks in send order and stamps each as it
// arrives. The first failure stops further sends; the returned times cover
// the batches attempted, which is len(times).
func runLoop(start time.Time, n int, interval time.Duration, window int, send sendFunc) []batchTimes {
	times := make([]batchTimes, n)
	type pending struct {
		i    int
		wait func() error
	}
	// Sized to n so the sender never blocks on the acker; the window
	// semaphore, not this buffer, bounds a closed loop's batches in flight.
	pend := make(chan pending, n)
	var slots chan struct{}
	if interval == 0 {
		slots = make(chan struct{}, window)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range pend {
			err := p.wait()
			times[p.i].Acked = time.Now()
			times[p.i].Err = err
			if slots != nil {
				<-slots
			}
		}
	}()
	sent := 0
	for i := 0; i < n; i++ {
		var due time.Time
		if interval > 0 {
			due = start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else {
			slots <- struct{}{}
			due = time.Now()
		}
		wait, err := send(i)
		times[i].Due, times[i].Sent = due, time.Now()
		sent++
		if err != nil {
			times[i].Acked, times[i].Err = times[i].Sent, err
			if slots != nil {
				<-slots
			}
			break
		}
		pend <- pending{i, wait}
	}
	close(pend)
	wg.Wait()
	return times[:sent]
}

// opSample is one operator call's latency and outcome.
type opSample struct {
	Kind string
	Lat  time.Duration
	Err  error
}

// runSchedule issues ops round-robin, one every `every`, starting at start,
// until stop is closed. A call that overruns its slot delays only the next
// one: the operator is a single caller on its own connection.
func runSchedule(start time.Time, every time.Duration, ops []namedOp, stop <-chan struct{}) []opSample {
	var out []opSample
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				return out
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		op := ops[k%len(ops)]
		t0 := time.Now()
		err := op.fn()
		out = append(out, opSample{Kind: op.name, Lat: time.Since(t0), Err: err})
	}
}

// namedOp is one kind of operator call.
type namedOp struct {
	name string
	fn   func() error
}
