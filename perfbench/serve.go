package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"implicate/internal/client"
	"implicate/internal/coord"
	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/server"
	"implicate/internal/telemetry"
)

// fleetLeaves is fleet-sketch's leaf count.
const fleetLeaves = 3

// drainTimeout bounds the wait for a round's applied count to reach what
// was sent.
const drainTimeout = 60 * time.Second

// system is one freshly built server or fleet.
type system struct {
	addr   string
	srv    *server.Server // leaf workloads
	co     *coord.Coordinator
	fe     *coord.Frontend
	leaves []*server.Server
}

// startSystem builds what w runs against: one leaf, or a coordinator and
// its front-end over fleetLeaves leaves. Every pool runs nproc workers.
func startSystem(w *workload, nproc int) (*system, error) {
	if !w.fleet {
		eng, err := w.newEngine(w.backend)
		if err != nil {
			return nil, err
		}
		srv, err := server.Listen(server.Config{
			Addr: "127.0.0.1:0", Schema: w.schema, Engine: eng, Workers: nproc,
			// Blocking backpressure keeps each connection's batches in send
			// order, which the reference answers depend on.
			BlockOnFull: true,
		})
		if err != nil {
			return nil, err
		}
		return &system{addr: srv.Addr(), srv: srv}, nil
	}
	s, err := startFleet(w, nproc)
	if err != nil {
		return nil, err
	}
	if s.fe, err = coord.Serve(s.co, "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.addr = s.fe.Addr()
	return s, nil
}

// startFleet starts fleetLeaves leaves, each serving a fresh sketch engine
// for w's statement, and a coordinator over them, without a front-end.
func startFleet(w *workload, nproc int) (*system, error) {
	s := &system{}
	specs := make([]coord.LeafSpec, fleetLeaves)
	for i := range specs {
		eng := query.NewEngine(w.schema)
		if _, err := eng.RegisterSQL(w.sql, w.sketch); err != nil {
			s.close()
			return nil, err
		}
		srv, err := server.Listen(server.Config{Addr: "127.0.0.1:0", Schema: w.schema, Engine: eng, Workers: nproc, BlockOnFull: true})
		if err != nil {
			s.close()
			return nil, err
		}
		s.leaves = append(s.leaves, srv)
		specs[i] = coord.LeafSpec{Name: fmt.Sprintf("leaf%d", i), Addr: srv.Addr()}
	}
	co, err := coord.New(coord.Config{Schema: w.schema, Statements: []string{w.sql}, Leaves: specs, FlushTuples: batchTuples})
	if err != nil {
		s.close()
		return nil, err
	}
	s.co = co
	return s, nil
}

// close tears the system down, front to back.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.fe != nil {
		keep(s.fe.Close())
	}
	if s.co != nil {
		keep(s.co.Close())
	}
	for _, l := range s.leaves {
		keep(l.Close())
	}
	if s.srv != nil {
		keep(s.srv.Close())
	}
	return first
}

// roundResult is what one round measured.
type roundResult struct {
	setup   time.Duration // system build to first acked batch
	ingest  time.Duration // first send to drained
	tuples  int64
	batches int
	cpu     time.Duration // process CPU over the ingest phase
	allocs  uint64        // process heap allocations over the ingest phase
	heapMB  float64       // live heap with the system up, minus before it
	acks    []batchTimes  // every batch after the first
	ops     []opSample    // operator calls during ingest, then quiet reads
	count   float64

	// Counters read through the Stats RPC (and, on a fleet, from every
	// leaf and the coordinator) after the drain.
	stats     telemetry.Snapshot
	leafStats []obs.LeafStatsRow
}

// attempts counts calls attempted and failed: ingest batches, then
// operator calls.
func (r *roundResult) attempts() (attempted, failed int) {
	attempted = 1 + len(r.acks) + len(r.ops) // 1: the set-up batch
	for _, b := range r.acks {
		if b.Err != nil {
			failed++
		}
	}
	for _, o := range r.ops {
		if o.Err != nil {
			failed++
		}
	}
	return attempted, failed
}

// runRound builds a fresh system, runs one round of w against it and
// checks the answer. A round with a wrong answer, or any failed call,
// returns its result with an error.
func runRound(w *workload, nproc int) (*roundResult, error) {
	heap0 := liveHeap()
	res := &roundResult{tuples: w.tuples}
	t0 := time.Now()
	sys, err := startSystem(w, nproc)
	if err != nil {
		return nil, err
	}
	// Clients close before the system, so the server's drain does not wait
	// out their idle connections.
	var conns []*client.Client
	var closeOnce sync.Once
	var closeErr error
	cleanup := func() error {
		closeOnce.Do(func() {
			for _, c := range conns {
				c.Close()
			}
			closeErr = sys.close()
		})
		return closeErr
	}
	defer cleanup()
	dial := func() (*client.Client, error) {
		cl, err := client.Dial(sys.addr, w.schema, client.Options{Conns: 1})
		if err == nil {
			conns = append(conns, cl)
		}
		return cl, err
	}

	prod := make([]*client.Client, len(w.producers))
	for p := range prod {
		if prod[p], err = dial(); err != nil {
			return nil, err
		}
	}
	// The operator has its own connection only when it reads during
	// ingest; quiet reads reuse producer 0's, keeping the load within
	// nproc connections.
	op := prod[0]
	if w.opEvery > 0 {
		if op, err = dial(); err != nil {
			return nil, err
		}
	}

	cpu0, allocs0 := cpuTime(), heapAllocs()
	first := time.Now()
	b0 := w.producers[0][0]
	if err := prod[0].IngestEncoded(b0.payload, b0.n); err != nil {
		return nil, fmt.Errorf("set-up batch: %w", err)
	}
	res.setup = time.Since(t0)

	start := time.Now()
	loops := make([][]batchTimes, len(prod))
	var wg sync.WaitGroup
	for p := range prod {
		batches := w.producers[p]
		if p == 0 {
			batches = batches[1:]
		}
		cl := prod[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			loops[p] = runLoop(start, len(batches), w.interval, w.window, func(i int) (func() error, error) {
				pi, err := cl.IngestAsync(batches[i].payload, batches[i].n)
				if err != nil {
					return nil, err
				}
				return pi.Wait, nil
			})
		}()
	}
	stop := make(chan struct{})
	var opWG sync.WaitGroup
	if w.opEvery > 0 {
		opWG.Add(1)
		go func() {
			defer opWG.Done()
			res.ops = runSchedule(start, w.opEvery, readOps(op, w.ops), stop)
		}()
	}
	wg.Wait()
	close(stop)
	opWG.Wait()
	for _, l := range loops {
		res.acks = append(res.acks, l...)
		res.batches += len(l)
	}
	res.batches++
	if _, failed := res.attempts(); failed > 0 {
		return res, fmt.Errorf("%d calls failed", failed)
	}

	if w.fleet {
		if err := sys.co.Flush(); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
	} else if err := waitApplied(op, w.prefixTuples+w.tuples); err != nil {
		return nil, err
	}
	res.ingest = time.Since(first)
	res.cpu, res.allocs = cpuTime()-cpu0, heapAllocs()-allocs0

	quiet := readOps(op, w.quietOps)
	for i := 0; i < w.quietReads; i++ {
		for _, q := range quiet {
			t := time.Now()
			err := q.fn()
			res.ops = append(res.ops, opSample{Kind: q.name, Lat: time.Since(t), Err: err})
		}
	}

	q, err := op.Query(0)
	if err != nil {
		return nil, err
	}
	res.count = q.Count
	applied := q.Tuples - w.prefixTuples
	if res.stats, err = op.Stats(); err != nil {
		return nil, err
	}
	if w.fleet {
		res.leafStats = sys.co.FleetStats()
	}
	if res.stats.TuplesIngested != applied {
		return res, fmt.Errorf("Stats reports %d tuples ingested, Query %d applied", res.stats.TuplesIngested, applied)
	}
	res.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)

	if _, failed := res.attempts(); failed > 0 {
		return res, fmt.Errorf("%d calls failed", failed)
	}
	if err := checkAnswer(w, applied, res.count); err != nil {
		return res, err
	}
	return res, cleanup()
}

// checkAnswer is the correctness gate: every tuple sent was applied, and
// the final count equals the workload's reference.
func checkAnswer(w *workload, applied int64, count float64) error {
	if applied != w.tuples {
		return fmt.Errorf("applied %d tuples, sent %d", applied, w.tuples)
	}
	if count != w.expect {
		return fmt.Errorf("count %v, reference %v", count, w.expect)
	}
	return nil
}

// waitApplied polls until the leaf has applied want tuples in total.
// Acks confirm enqueueing only, so this is the drain.
func waitApplied(cl *client.Client, want int64) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		q, err := cl.Query(0)
		if err != nil {
			return err
		}
		if q.Tuples == want {
			return nil
		}
		if q.Tuples > want || time.Now().After(deadline) {
			return fmt.Errorf("leaf applied %d tuples, want %d", q.Tuples, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readOps maps read kinds to calls on cl.
func readOps(cl *client.Client, kinds []string) []namedOp {
	out := make([]namedOp, len(kinds))
	for i, k := range kinds {
		switch k {
		case "query":
			out[i] = namedOp{k, func() error { _, err := cl.Query(0); return err }}
		case "health":
			out[i] = namedOp{k, func() error { _, err := cl.Health(); return err }}
		default:
			panic("unknown read kind " + k)
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

// heapAllocs is the cumulative count of heap allocations, tiny ones
// included, read without stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap forces two collections and returns the heap the last one
// marked live. The first collection moves sync.Pool contents to the pools'
// victim caches, the second frees them, so pooled buffers, whose number
// follows how backed up the last burst was, do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	metrics.Read(liveSample)
	return liveSample[0].Value.Uint64()
}
