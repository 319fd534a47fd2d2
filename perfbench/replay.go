package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// The traced replay feeds a workload's batches serially through each
// layer's public functions, one call at a time, with a span around every
// call. It has two phases. The leaf phase runs what a leaf does with a
// batch (frame, read, decode, plan, dispatch, wait for apply) and, on the
// same decoded batch, the layers a leaf does not call directly (producer
// encode, the serial engine, a bare sketch and a bare exact store). The
// fleet phase runs what a coordinator does (frame, read, decode,
// Coordinator.Ingest, Query, Flush). Every workload runs both, so every
// per-layer metric is measured on every workload's input; which phase is
// the workload's serving path decides the prediction check.

// replayResult is what one replay measured besides its spans.
type replayResult struct {
	wall  time.Duration
	count float64 // the serving-path phase's final answer

	// Index ranges of each phase's spans in the tracer.
	leafSpans, fleetSpans [2]int

	wireBytesPerTuple float64
	coreStateKB       float64
	coreEvictions     float64
	exactStateMB      float64
	journalHighWater  int64
	delivery          telemetry.Histogram
	tuples            int64
}

// replay runs both phases over batches, with spans when tr is non-nil.
func replay(tr *tracer, w *workload, batches []encBatch, nproc int, dir string) (*replayResult, error) {
	r := &replayResult{}
	t0 := time.Now()
	root := tr.begin("replay")
	leafCount, err := replayLeaf(tr, w, batches, nproc, dir, r)
	if err != nil {
		return nil, err
	}
	fleetCount, err := replayFleetInto(tr, w, batches, nproc, r)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	r.wall = time.Since(t0)
	if w.fleet {
		r.count = fleetCount
	} else {
		r.count = leafCount
	}
	return r, nil
}

// wireReader frames a payload and reads it back through proto's frame
// reader, the way a connection reader sees it.
type wireReader struct {
	wire []byte
	rd   bytes.Reader
	fr   *proto.FrameReader
	hdr  []byte
}

func newWireReader(schema *stream.Schema) *wireReader {
	wr := &wireReader{hdr: stream.BinaryHeader(schema)}
	wr.fr = proto.NewFrameReader(&wr.rd)
	return wr
}

// frameAndRead returns the record region of b's payload after a framing
// round trip, with proto.frame and proto.read spans.
func (wr *wireReader) frameAndRead(tr *tracer, id int, b encBatch) ([]byte, error) {
	s := tr.begin("proto.frame")
	var err error
	wr.wire, err = proto.AppendFrameHeader(wr.wire[:0], proto.TIngest, uint64(id+1), b.payload)
	wr.wire = append(wr.wire, b.payload...)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("proto.read")
	wr.rd.Reset(wr.wire)
	f, err := wr.fr.Next()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(f.Payload, wr.hdr) {
		return nil, fmt.Errorf("batch %d: payload schema differs from the workload's", id)
	}
	return f.Payload[len(wr.hdr):], nil
}

// replayLeaf is the leaf phase. It returns the pipeline engine's final
// count.
func replayLeaf(tr *tracer, w *workload, batches []encBatch, nproc int, dir string, r *replayResult) (float64, error) {
	lo := len(spansOf(tr))
	phase := tr.begin("leaf")
	defer func() { r.leafSpans = [2]int{lo, len(spansOf(tr))} }()

	// The serving engine: restored from the checkpoint (timed as the
	// checkpoint layer) or built fresh.
	var eng *query.Engine
	var err error
	if w.ckpt != "" {
		s := tr.begin("checkpoint.read")
		snap, rerr := checkpoint.Read(w.ckpt)
		tr.end(s)
		if rerr != nil {
			return 0, rerr
		}
		s = tr.begin("checkpoint.restore")
		eng, err = checkpoint.Restore(snap, w.schema, w.resolver)
		tr.end(s)
	} else {
		s := tr.begin("setup")
		eng, err = w.newEngine(w.backend)
		tr.end(s)
	}
	if err != nil {
		return 0, err
	}

	// The off-path layers' own state: a second serving engine for the
	// serial baseline, a bare sketch, and a bare exact store that starts
	// from the checkpoint's state when there is one.
	s := tr.begin("setup.probes")
	base, err := w.newEngine(w.backend)
	if err != nil {
		return 0, err
	}
	sk, err := core.NewSketch(w.cond, core.Options{Seed: 7})
	if err != nil {
		return 0, err
	}
	var ex *exact.Striped
	if w.ckpt != "" {
		e2, err := w.restoreEngine()
		if err != nil {
			return 0, err
		}
		ex = e2.Statements()[0].Estimator().(*exact.Striped)
	} else if ex, err = exact.NewStriped(w.cond, 0); err != nil {
		return 0, err
	}
	pool, err := pipeline.New(eng, pipeline.Config{Workers: nproc})
	tr.end(s)
	if err != nil {
		return 0, err
	}
	st := eng.Statements()[0]

	// Reads on the serving engine at the live operator's cadence: one
	// every opEvery of offered load, alternating like the live schedule.
	readEvery := 0
	if !w.fleet && w.opEvery > 0 && w.interval > 0 {
		readEvery = int(w.opEvery / w.interval)
	}
	reads := 0
	read := func(kind string) {
		s := tr.begin("query." + kind)
		if kind == "count" {
			st.Count()
		} else {
			eng.HealthReports()
		}
		tr.end(s)
	}

	wr := newWireReader(w.schema)
	arity := w.schema.Len()
	pairs := make([]imps.Pair, 0, batchTuples)
	var wire, tuples int64
	for i, b := range batches {
		tr.setBatch(i)
		bs := tr.begin("batch")
		rec, err := wr.frameAndRead(tr, i, b)
		if err != nil {
			return 0, err
		}
		wire += int64(len(wr.wire))
		pb := pool.NewBatch()
		s := tr.begin("stream.decode")
		ts, err := pb.Arena().DecodeBinaryRecords(rec, arity, batchTuples)
		tr.end(s)
		if err != nil {
			pb.Release()
			return 0, err
		}
		tuples += int64(len(ts))

		s = tr.begin("client.encode")
		_, err = client.EncodeBatch(w.schema, ts)
		tr.end(s)
		if err != nil {
			pb.Release()
			return 0, err
		}
		s = tr.begin("query.apply")
		base.ProcessBatch(ts)
		tr.end(s)
		pairs = pairs[:0]
		for _, t := range ts {
			pairs = append(pairs, imps.Pair{A: t[0], B: t[1]})
		}
		s = tr.begin("core.add")
		sk.AddBatch(pairs)
		tr.end(s)
		s = tr.begin("exact.add")
		ex.AddBatch(pairs)
		tr.end(s)

		s = tr.begin("pipeline.plan")
		pool.PlanInto(pb, ts)
		tr.end(s)
		s = tr.begin("pipeline.dispatch")
		pool.Dispatch(pb)
		tr.end(s)
		s = tr.begin("pipeline.fence")
		pool.Fence()
		tr.end(s)

		if readEvery > 0 && (i+1)%readEvery == 0 {
			if reads%2 == 0 {
				read("count")
			} else {
				read("health")
			}
			reads++
		}
		tr.end(bs)
	}
	tr.setBatch(-1)
	pool.Close()
	r.tuples = tuples
	if tuples > 0 {
		r.wireBytesPerTuple = float64(wire) / float64(tuples)
	}

	// State reads, once each at the end.
	read("count")
	read("health")
	s = tr.begin("core.health")
	ch := sk.Health()
	tr.end(s)
	s = tr.begin("exact.health")
	eh := ex.Health()
	tr.end(s)
	r.coreStateKB = float64(ch.MemBytes) / 1024
	r.coreEvictions = float64(ch.FringeEvictions)
	r.exactStateMB = float64(eh.MemBytes) / (1 << 20)

	// Workloads that do not start from a checkpoint round-trip the
	// serving engine through one, so the checkpoint layer is measured on
	// their state too.
	if w.ckpt == "" {
		s = tr.begin("checkpoint.write")
		snap, err := checkpoint.Capture(eng, eng.Tuples())
		if err == nil {
			err = checkpoint.Write(filepath.Join(dir, w.name+".ckpt"), snap)
		}
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("checkpoint.read")
		snap, err = checkpoint.Read(filepath.Join(dir, w.name+".ckpt"))
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("checkpoint.restore")
		_, err = checkpoint.Restore(snap, w.schema, func(query.Query, string) (query.Backend, error) { return w.backend, nil })
		tr.end(s)
		if err != nil {
			return 0, err
		}
	}
	count := st.Count()
	tr.end(phase)
	return count, nil
}

// replayFleetInto is the fleet phase: a coordinator over fleetLeaves
// sketch leaves, fed by direct Coordinator.Ingest calls. It returns the
// merged count. Untraced, it is fleet-sketch's reference.
func replayFleetInto(tr *tracer, w *workload, batches []encBatch, nproc int, r *replayResult) (float64, error) {
	lo := len(spansOf(tr))
	phase := tr.begin("fleet")
	defer func() { r.fleetSpans = [2]int{lo, len(spansOf(tr))} }()

	s := tr.begin("setup")
	sys, err := startFleet(w, nproc)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	co := sys.co

	// On fleet-sketch the live operator's merged queries run beside
	// ingest; the replay issues one per fleetQueryEvery batches.
	readEvery := 0
	if w.fleet && w.opEvery > 0 {
		readEvery = fleetQueryEvery
	}

	wr := newWireReader(w.schema)
	arity := w.schema.Len()
	var high int64
	for i, b := range batches {
		tr.setBatch(i)
		bs := tr.begin("batch")
		rec, err := wr.frameAndRead(tr, i, b)
		if err != nil {
			return 0, err
		}
		// The coordinator keeps tuples until it journals them, so they
		// are decoded into fresh memory, not a recycled arena.
		s := tr.begin("stream.decode")
		ts, err := stream.DecodeBinaryRecords(rec, arity, batchTuples)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("coord.ingest")
		err = co.Ingest(ts)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		for _, lt := range co.FleetTelemetry() {
			high = max(high, lt.PendingEntries)
		}
		if readEvery > 0 && (i+1)%readEvery == 0 {
			s = tr.begin("coord.query")
			_, err = co.Query(0)
			tr.end(s)
			if err != nil {
				return 0, err
			}
		}
		tr.end(bs)
	}
	tr.setBatch(-1)
	s = tr.begin("coord.flush")
	err = co.Flush()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("coord.query")
	q, err := co.Query(0)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if want := batchesTuples(batches); q.Tuples != want {
		return 0, fmt.Errorf("fleet applied %d tuples, sent %d", q.Tuples, want)
	}
	r.journalHighWater = high
	for _, lt := range co.FleetTelemetry() {
		for b, c := range lt.Delivery.Counts {
			r.delivery.Counts[b] += c
		}
	}
	tr.end(phase)
	return q.Count, nil
}

// fleetQueryEvery is the replay's merged-query cadence in batches on
// fleet-sketch: about one per 50 ms operator tick at the ~2M tuples/s the
// front-end sustains.
const fleetQueryEvery = 100

func batchesTuples(bs []encBatch) int64 {
	var n int64
	for _, b := range bs {
		n += b.n
	}
	return n
}

func spansOf(tr *tracer) []span {
	if tr == nil {
		return nil
	}
	return tr.spans
}
