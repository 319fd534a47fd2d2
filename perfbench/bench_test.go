package main

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"implicate/internal/telemetry"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %g): err = %v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, _ := percentile(seq(100), 0.5); v != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", v)
	}
	if v, _ := percentile(seq(100), 0.9); math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", v)
	}
}

func TestRoundsPercentileBlocks(t *testing.T) {
	// Each round alone has enough samples for a p50: the median of the
	// rounds' p50s, so the outlier round does not move it.
	sets := [][]float64{seq(20), seq(20), append(seq(19), 1000)}
	v, n, err := roundsPercentile(sets, 0.5)
	if err != nil || v != 10.5 || n != 60 {
		t.Errorf("per-round p50 = %v (n=%d, err %v), want 10.5 over 60 samples", v, n, err)
	}
	// A p90 needs 100 samples: rounds of 60 pair up into blocks of 120,
	// and the last round joins the last block.
	sets = [][]float64{seq(60), seq(60), seq(60), seq(60), seq(60)}
	v, n, err = roundsPercentile(sets, 0.9)
	if err != nil || n != 300 {
		t.Fatalf("blocked p90: n=%d err=%v", n, err)
	}
	b1, _ := percentile(append(seq(60), seq(60)...), 0.9)
	b2, _ := percentile(append(append(seq(60), seq(60)...), seq(60)...), 0.9)
	if want := (b1 + b2) / 2; v != want {
		t.Errorf("blocked p90 = %v, want median of block p90s %v", v, want)
	}
	// Too few samples in all rounds together.
	if _, _, err := roundsPercentile([][]float64{seq(40), seq(40)}, 0.9); err == nil {
		t.Error("p90 over 80 samples: want an error")
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	var h telemetry.Histogram
	h.Counts[20] = 100 // (2^19, 2^20] ns
	lo, hi := math.Ldexp(1, 19)/1e6, math.Ldexp(1, 20)/1e6
	p50 := histQuantileMs(h, 0.5)
	if p50 <= lo || p50 >= hi {
		t.Errorf("p50 = %v ms, want strictly inside (%v, %v)", p50, lo, hi)
	}
	if p99 := histQuantileMs(h, 0.99); p99 <= p50 {
		t.Errorf("p99 %v <= p50 %v", p99, p50)
	}
	if v := histQuantileMs(telemetry.Histogram{}, 0.5); v != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", v)
	}
}

// TestOpenLoopChargesStallToLaterBatches stalls the "server" on batch 2's
// send for several intervals: the batches due during the stall are sent
// late, and their latency counts from when they were due.
func TestOpenLoopChargesStallToLaterBatches(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 45 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	times := runLoop(start, 8, interval, 0, func(i int) (func() error, error) {
		if i == 2 {
			time.Sleep(stall)
		}
		return func() error { return nil }, nil
	})
	if len(times) != 8 {
		t.Fatalf("%d batches attempted, want 8", len(times))
	}
	for i, b := range times {
		if want := start.Add(time.Duration(i) * interval); !b.Due.Equal(want) {
			t.Errorf("batch %d due %v after start, want %v", i, b.Due.Sub(start), want.Sub(start))
		}
		if b.Acked.Before(b.Sent) || b.Sent.Before(b.Due) {
			t.Errorf("batch %d: due %v sent %v acked %v out of order", i, b.Due, b.Sent, b.Acked)
		}
	}
	// Batch 3 was due 10ms after batch 2 but could only go once the 45ms
	// stall ended: at least ~35ms late, and its ack latency includes that.
	if lag := times[3].sendLag(); lag < stall-interval-2*time.Millisecond {
		t.Errorf("batch 3 send lag %v, want >= %v", lag, stall-interval-2*time.Millisecond)
	}
	if times[3].ackLatency() < times[3].sendLag() {
		t.Errorf("batch 3 ack latency %v < its send lag %v", times[3].ackLatency(), times[3].sendLag())
	}
	// Batch 1 went before the stall: far less late than batch 3, with
	// room for a loaded test host.
	if lag := times[1].sendLag(); lag > stall/2 {
		t.Errorf("batch 1 send lag %v, want well under %v", lag, stall/2)
	}
}

// TestOpenLoopStalledAcks: acks held back by a stalled server make the
// latency of every batch due during the stall count from its due time,
// while the generator itself stays on schedule.
func TestOpenLoopStalledAcks(t *testing.T) {
	const interval = 5 * time.Millisecond
	start := time.Now()
	release := start.Add(100 * time.Millisecond)
	times := runLoop(start, 6, interval, 0, func(i int) (func() error, error) {
		return func() error {
			time.Sleep(time.Until(release))
			return nil
		}, nil
	})
	for i, b := range times {
		due := start.Add(time.Duration(i) * interval)
		if want := release.Sub(due); b.ackLatency() < want-time.Millisecond {
			t.Errorf("batch %d ack latency %v, want >= %v", i, b.ackLatency(), want)
		}
		if b.Sent.After(release) {
			t.Errorf("batch %d sent %v after the acks were released: the generator must not wait for acks", i, b.Sent.Sub(release))
		}
	}
}

func TestClosedLoopWindowAndFailure(t *testing.T) {
	var inFlight, peak atomic.Int32
	times := runLoop(time.Now(), 50, 0, 3, func(i int) (func() error, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return func() error {
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			return nil
		}, nil
	})
	if len(times) != 50 || peak.Load() > 3 {
		t.Errorf("closed loop: %d batches, peak %d in flight; want 50 and <= 3", len(times), peak.Load())
	}
	boom := errors.New("refused")
	times = runLoop(time.Now(), 10, 0, 2, func(i int) (func() error, error) {
		if i == 4 {
			return nil, boom
		}
		return func() error { return nil }, nil
	})
	if len(times) != 5 || !errors.Is(times[4].Err, boom) {
		t.Errorf("after a failed send: %d batches attempted (want 5), last err %v", len(times), times[len(times)-1].Err)
	}
}

func TestSelfTimesOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "leaf", Start: 5, End: 60},
		{ID: 2, Parent: 1, Name: "batch", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "stream.decode", Start: 12, End: 20},
		{ID: 4, Parent: 2, Name: "pipeline.fence", Start: 22, End: 38},
		{ID: 5, Parent: 1, Name: "batch", Start: 40, End: 55},
		{ID: 6, Parent: 5, Name: "stream.decode", Start: 41, End: 50},
		{ID: 7, Parent: 0, Name: "fleet", Start: 60, End: 95},
		{ID: 8, Parent: 7, Name: "stream.decode", Start: 61, End: 90},
	}
	self := selfTimes(spans)
	want := []time.Duration{10, 10, 6, 8, 16, 6, 9, 6, 29}
	var sum time.Duration
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s) self %v, want %v", i, spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
	rows := stageTable(spans, phaseLabels(spans))
	got := map[string]time.Duration{}
	var total time.Duration
	for _, r := range rows {
		got[r.Name] = r.Self
		total += r.Self
	}
	if got["leaf/stream.decode"] != 17 || got["fleet/stream.decode"] != 29 || got["leaf/batch"] != 12 || total != 100 {
		t.Errorf("stage table %v (total %v): want leaf/stream.decode 17, fleet/stream.decode 29, leaf/batch 12, total 100", got, total)
	}
}

func TestTracerRecordsNestingAndNilIsFree(t *testing.T) {
	tr := newTracer()
	root := tr.begin("replay")
	tr.setBatch(3)
	b := tr.begin("batch")
	s := tr.begin("proto.read")
	tr.end(s)
	tr.end(b)
	tr.setBatch(-1)
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 || tr.spans[2].Batch != 3 || tr.spans[0].Batch != -1 {
		t.Errorf("spans %+v: want replay > batch > proto.read, batch id 3 on the inner two", tr.spans)
	}
	var none *tracer
	if id := none.begin("x"); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(-1)
	none.setBatch(1)
}

// smallScale keeps test rounds to a fraction of a second.
var smallScale = scale{
	sketchCardA: 400,
	sources:     2000,
	prefix:      20_000,
	rate:        200_000,
	roundDur:    100 * time.Millisecond,
	opEvery:     10 * time.Millisecond,
	reads:       100,
}

// TestRoundGateRejectsWrongReference runs each workload's round at a small
// scale: the true reference passes, a reference off by one fails the run.
func TestRoundGateRejectsWrongReference(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := prepare(name, 3, smallScale, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runRound(w, 2); err != nil {
				t.Fatalf("round against the true reference: %v", err)
			}
			w.expect++
			_, err = runRound(w, 2)
			if err == nil || !strings.Contains(err.Error(), "reference") {
				t.Fatalf("round against a wrong reference: err = %v, want a reference mismatch", err)
			}
		})
	}
}

func TestCheckAnswer(t *testing.T) {
	w := &workload{tuples: 1000, expect: 7}
	if err := checkAnswer(w, 1000, 7); err != nil {
		t.Errorf("matching answer: %v", err)
	}
	if err := checkAnswer(w, 999, 7); err == nil {
		t.Error("a lost tuple must fail the gate")
	}
	if err := checkAnswer(w, 1000, 7.5); err == nil {
		t.Error("a wrong count must fail the gate")
	}
}

// TestReplayMatchesReference runs the untraced and traced replay of a
// small workload: both reproduce the reference, and the traced one's self
// times sum to its root span.
func TestReplayMatchesReference(t *testing.T) {
	w, err := prepare("leaf-sketch", 5, smallScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, err := replay(nil, w, w.batches(), 2, dir)
	if err != nil || plain.count != w.expect {
		t.Fatalf("untraced replay: count %v err %v, want %v", plain.count, err, w.expect)
	}
	tr := newTracer()
	r, err := replay(tr, w, w.batches(), 2, dir)
	if err != nil || r.count != w.expect {
		t.Fatalf("traced replay: count %v err %v, want %v", r.count, err, w.expect)
	}
	var sum time.Duration
	for _, s := range selfTimes(tr.spans) {
		sum += s
	}
	if root := tr.spans[0]; root.Name != "replay" || sum != root.End-root.Start {
		t.Errorf("self times sum %v, root %s spans %v", sum, root.Name, root.End-root.Start)
	}
}
