package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// batchTuples is the tuple count of every ingest batch.
const batchTuples = 1000

// encBatch is one pre-encoded ingest batch.
type encBatch struct {
	payload []byte
	n       int64
}

// workload is one prepared traffic mix: its inputs, encoded once from the
// seed outside every timed region, the system it runs against, and the
// reference answer every round must reproduce.
type workload struct {
	name string
	// fleet selects coord.New + coord.Serve over fleetLeaves sketch leaves
	// instead of one server.Listen leaf.
	fleet bool

	schema *stream.Schema
	sql    string
	// backend builds the serving engine's estimator; sketch builds the
	// merge-compatible core.Sketch every fleet leaf and sketch probe uses.
	backend, sketch query.Backend
	cond            imps.Conditions

	// producers holds each producer connection's batches, in send order.
	producers [][]encBatch
	// tuples is the tuple count of one round, over all producers.
	tuples int64

	// ckpt, when set, is the checkpoint every round restores its engine
	// from; prefixTuples is the tuple count it holds.
	ckpt         string
	prefixTuples int64

	// interval > 0 makes the producer an open loop sending one batch per
	// interval; 0 is a closed loop with window batches in flight.
	interval time.Duration
	window   int
	// opEvery > 0 runs the operator connection during ingest, one call
	// per opEvery, cycling through ops ("query", "health").
	opEvery time.Duration
	ops     []string
	// quietReads is how many Query and Health calls each round makes
	// after the drain, for the read metrics the workload does not sample
	// during ingest (quietOps names which).
	quietReads int
	quietOps   []string

	// expect is the reference count a round's final answer must equal.
	expect float64
}

// batches returns every batch in replay order: producer by producer. Each
// producer owns its keys' partitions, so this order gives every key the
// tuple order a live round gives it.
func (w *workload) batches() []encBatch {
	var out []encBatch
	for _, p := range w.producers {
		out = append(out, p...)
	}
	return out
}

// scale sizes the inputs. full is what the benchmark runs; tests use a
// small one.
type scale struct {
	// sketchCardA is Dataset One's |A| for leaf-sketch; fleet-sketch uses
	// half of it.
	sketchCardA int
	// sources is the router stream's source population for
	// leaf-exact-mixed; prefix is the tuple count the checkpoint holds.
	sources, prefix int
	// rate is leaf-exact-mixed's offered load in tuples per second, and
	// roundDur the length of its open-loop phase.
	rate     int
	roundDur time.Duration
	opEvery  time.Duration
	reads    int
}

var fullScale = scale{
	sketchCardA: 36_000,
	sources:     50_000,
	prefix:      1_000_000,
	rate:        500_000,
	roundDur:    3 * time.Second,
	opEvery:     50 * time.Millisecond,
	reads:       100,
}

// workloadNames lists the workloads the program runs. BENCHMARK.json
// lists leaf-sketch and fleet-sketch; leaf-exact-mixed runs by hand only
// (see README.md, "Steadiness on the reference host").
var workloadNames = []string{"leaf-sketch", "leaf-exact-mixed", "fleet-sketch"}

// prepare builds the named workload's inputs and reference answer from
// seed. dir holds any files the workload writes.
func prepare(name string, seed int64, sc scale, dir string) (*workload, error) {
	switch name {
	case "leaf-sketch":
		return prepareSketch(name, seed, sc.sketchCardA, sc)
	case "fleet-sketch":
		return prepareSketch(name, seed, sc.sketchCardA/2, sc)
	case "leaf-exact-mixed":
		return prepareExactMixed(seed, sc, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sketchBackend returns the merge-compatible sketch factory for seed.
func sketchBackend(seed int64) query.Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: uint64(seed)*2 + 1})
	}
}

func condSQL(a, b, from string, c imps.Conditions) string {
	return fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM %s WHERE %s IMPLIES %s WITH SUPPORT >= %d, MULTIPLICITY <= %d, CONFIDENCE >= %g TOP %d",
		a, from, a, b, c.MinSupport, c.MaxMultiplicity, c.MinTopConfidence, c.TopC)
}

// prepareSketch builds a Dataset One (§6.1) workload over the NIPS/CI
// sketch. leaf-sketch splits the stream across two producers by the
// sketch's own bitmap partition, so each bitmap hears one producer and the
// served state equals a serial sketch fed producer by producer;
// fleet-sketch has one producer.
func prepareSketch(name string, seed int64, cardA int, sc scale) (*workload, error) {
	d, err := gen.NewDatasetOne(gen.DatasetOneConfig{CardA: cardA, Count: cardA / 2, C: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		return nil, err
	}
	w := &workload{
		name:    name,
		fleet:   name == "fleet-sketch",
		schema:  schema,
		sql:     condSQL("A", "B", "s", d.Conditions),
		backend: sketchBackend(seed),
		sketch:  sketchBackend(seed),
		cond:    d.Conditions,
		window:  8,
	}
	if !w.fleet {
		// Two producers with 4 each keep the single applying worker as busy
		// as 8 each did, at half the queue in front of it: the same
		// throughput with ack tails that vary less between runs.
		w.window = 4
	}
	tuples := make([]stream.Tuple, len(d.Pairs))
	for i, p := range d.Pairs {
		tuples[i] = stream.Tuple{"a" + strconv.FormatUint(p.A, 10), "b" + strconv.FormatUint(p.B, 10)}
	}
	producers := 1
	if w.fleet {
		w.opEvery, w.ops = sc.opEvery, []string{"query"}
		w.quietReads, w.quietOps = sc.reads, []string{"health"}
	} else {
		producers = 2
		w.quietReads, w.quietOps = sc.reads, []string{"query", "health"}
	}
	own := make([][]stream.Tuple, producers)
	if producers == 1 {
		own[0] = tuples
	} else {
		// A same-seed sharded sketch with one shard per producer names the
		// bitmap range each key's bitmap lies in.
		router, err := core.NewShardedSketch(d.Conditions, core.Options{Seed: uint64(seed)*2 + 1}, producers)
		if err != nil {
			return nil, err
		}
		for _, t := range tuples {
			p := router.IngestPartitionString(t[0], producers)
			own[p] = append(own[p], t)
		}
	}
	if w.producers, err = encodeAll(schema, own); err != nil {
		return nil, err
	}
	w.tuples = int64(len(tuples))
	if !w.fleet {
		// The serial reference: one sketch fed producer by producer.
		if w.expect, err = serialCount(schema, w.sql, w.sketch, own...); err != nil {
			return nil, err
		}
	} else {
		// The fleet's reference is the serial replay through
		// Coordinator.Ingest, the same routing without the wire.
		// The leaves' pool size does not change the answer.
		if w.expect, err = replayFleetInto(nil, w, w.batches(), runtime.GOMAXPROCS(0), &replayResult{}); err != nil {
			return nil, fmt.Errorf("fleet reference: %w", err)
		}
	}
	return w, nil
}

// prepareExactMixed builds the router-stream workload: a checkpoint of an
// exact-striped engine that has seen sc.prefix tuples, and the tuples of
// one open-loop round after it. The reference is an exact.Counter fed
// the prefix and the round's tuples in order.
func prepareExactMixed(seed int64, sc scale, dir string) (*workload, error) {
	g := gen.NewNetTraffic(gen.NetTrafficConfig{Seed: seed, Sources: sc.sources, Destinations: sc.sources / 5})
	schema := gen.NetTrafficSchema()
	c := imps.Conditions{MaxMultiplicity: 2, MinSupport: 12, TopC: 1, MinTopConfidence: 0.9}
	w := &workload{
		name:     "leaf-exact-mixed",
		schema:   schema,
		sql:      condSQL("Source", "Destination", "traffic", c),
		backend:  func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewStriped(cond, 0) },
		sketch:   sketchBackend(seed),
		cond:     c,
		interval: time.Duration(float64(time.Second) * batchTuples / float64(sc.rate)),
		opEvery:  sc.opEvery,
		ops:      []string{"query", "health"},
	}
	next := func(n int) []stream.Tuple {
		out := make([]stream.Tuple, n)
		for i := range out {
			t, _ := g.Next()
			out[i] = append(stream.Tuple(nil), t...)
		}
		return out
	}
	prefix := next(sc.prefix)
	round := next(int(float64(sc.rate) * sc.roundDur.Seconds()))

	eng := query.NewEngine(schema)
	if _, err := eng.RegisterSQL(w.sql, w.backend); err != nil {
		return nil, err
	}
	eng.ProcessBatch(prefix)
	snap, err := checkpoint.Capture(eng, int64(len(prefix)))
	if err != nil {
		return nil, err
	}
	w.ckpt = filepath.Join(dir, "leaf-exact-mixed.ckpt")
	if err := checkpoint.Write(w.ckpt, snap); err != nil {
		return nil, err
	}
	w.prefixTuples = int64(len(prefix))

	exactCounter := func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewCounter(cond) }
	if w.expect, err = serialCount(schema, w.sql, exactCounter, prefix, round); err != nil {
		return nil, err
	}
	if w.producers, err = encodeAll(schema, [][]stream.Tuple{round}); err != nil {
		return nil, err
	}
	w.tuples = int64(len(round))
	return w, nil
}

// restoreEngine reads and restores the workload's checkpoint.
func (w *workload) restoreEngine() (*query.Engine, error) {
	snap, err := checkpoint.Read(w.ckpt)
	if err != nil {
		return nil, err
	}
	return checkpoint.Restore(snap, w.schema, w.resolver)
}

func (w *workload) resolver(q query.Query, kind string) (query.Backend, error) {
	if kind != "exact-striped" {
		return nil, fmt.Errorf("checkpoint holds a %q estimator, want exact-striped", kind)
	}
	return w.backend, nil
}

// newEngine builds the engine one leaf serves: restored from the
// checkpoint when the workload has one, fresh otherwise.
func (w *workload) newEngine(backend query.Backend) (*query.Engine, error) {
	if w.ckpt != "" {
		return w.restoreEngine()
	}
	eng := query.NewEngine(w.schema)
	if _, err := eng.RegisterSQL(w.sql, backend); err != nil {
		return nil, err
	}
	return eng, nil
}

// serialCount feeds the tuple runs, in order, to a fresh single-threaded
// engine and returns its answer.
func serialCount(schema *stream.Schema, sql string, backend query.Backend, runs ...[]stream.Tuple) (float64, error) {
	eng := query.NewEngine(schema)
	st, err := eng.RegisterSQL(sql, backend)
	if err != nil {
		return 0, err
	}
	for _, r := range runs {
		eng.ProcessBatch(r)
	}
	return st.Count(), nil
}

// encodeAll encodes each producer's tuples into batches of batchTuples.
func encodeAll(schema *stream.Schema, own [][]stream.Tuple) ([][]encBatch, error) {
	out := make([][]encBatch, len(own))
	for p, ts := range own {
		for off := 0; off < len(ts); off += batchTuples {
			end := min(off+batchTuples, len(ts))
			enc, err := client.EncodeBatch(schema, ts[off:end])
			if err != nil {
				return nil, err
			}
			out[p] = append(out[p], encBatch{enc, int64(end - off)})
		}
	}
	return out, nil
}

// workDir creates the directory the run writes its files in, inside the
// working directory.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}
