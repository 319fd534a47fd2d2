package query

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"

	"implicate/internal/imps"
	"implicate/internal/stream"
	"implicate/internal/window"
)

// Backend constructs a fresh estimator for the given implication
// conditions — the pluggable choice between the NIPS/CI sketch, the exact
// counter, and the baselines.
type Backend func(cond imps.Conditions) (imps.Estimator, error)

// Statement is a query compiled against a schema and bound to an
// estimator; feed it tuples and read counts at any time.
//
// Every statement belongs to one of two concurrency classes (DESIGN.md
// §10). Partition-safe statements (PartitionSafe reports true) are bound to
// an estimator implementing imps.PartitionedAdder: their ingest may be
// split across concurrent workers along the estimator's own partitions via
// PlanPartitionsHashed/ProcessHashedPairs, and reads are safe at any time.
// Serialized statements — plain sketches, the baselines, sliding windows —
// must be fed through ProcessBatchExclusive (or the single-writer
// Process/ProcessBatch paths), which serializes writers and readers on the
// statement's own lock.
type Statement struct {
	query   Query
	projA   stream.Proj
	projB   stream.Proj
	hasB    bool
	filters []compiledFilter
	est     imps.Estimator
	// bytes is est's allocation-free byte-key ingest path, nil when the
	// estimator does not provide one; cached here so the per-tuple path pays
	// no interface assertion.
	bytes imps.BytesAdder
	// part is est's partitioned concurrent ingest path (plan-time key
	// hashing, hash-routed apply), nil for the serialized class.
	part imps.PartitionedAdder
	// estMu guards the estimator for the serialized class: exclusive for
	// writers (ProcessBatchExclusive, Exclusive), shared for readers
	// (Count). Statements aliasing one estimator alias its lock too.
	// Partition-safe estimators synchronize internally, so their ingest
	// never takes it; their readers still acquire it shared, which is then
	// uncontended.
	estMu *sync.RWMutex
	// shared marks a statement aliasing another statement's estimator; the
	// engine feeds each estimator exactly once per tuple.
	shared bool

	bufA, bufB []byte
}

type compiledFilter struct {
	idx    int
	value  string
	negate bool
}

// Compile validates and normalizes q against the schema and binds it to an
// estimator from the backend. Compound queries (GROUP BY) extend the
// counted itemset with the grouping attributes; windowed queries wrap the
// backend in a sliding-origin vector (§3.2).
func Compile(q Query, schema *stream.Schema, backend Backend) (*Statement, error) {
	if backend == nil {
		return nil, fmt.Errorf("query: nil backend")
	}
	if err := q.Normalize(schema); err != nil {
		return nil, err
	}
	probe, err := backend(q.Cond)
	if err != nil {
		return nil, err
	}
	if err := validateMode(q, probe); err != nil {
		return nil, err
	}
	return compileWith(q, schema, backend, probe)
}

// validateMode checks the query's read mode against a leaf estimator the
// backend produced. The check runs against the leaf — never against a
// sliding-window wrapper, whose own AvgMultiplicity method would satisfy
// the interface regardless of what its slot estimators can answer.
func validateMode(q Query, leaf imps.Estimator) error {
	if q.Mode != AvgMultiplicity {
		return nil
	}
	if _, ok := leaf.(imps.MultiplicityAverager); !ok {
		return fmt.Errorf("query: the chosen backend cannot answer AVG(MULTIPLICITY(...))")
	}
	return nil
}

// newShell builds the estimator-independent part of a statement: the
// projections and compiled filters for an already normalized query.
func newShell(q Query, schema *stream.Schema) (*Statement, error) {
	st := &Statement{query: q, estMu: &sync.RWMutex{}}
	aAttrs := append(append([]string(nil), q.A...), q.GroupBy...)
	var err error
	if st.projA, err = schema.Proj(aAttrs...); err != nil {
		return nil, err
	}
	if len(q.B) > 0 {
		if st.projB, err = schema.Proj(q.B...); err != nil {
			return nil, err
		}
		st.hasB = true
	}
	for _, f := range q.Filters {
		idx, _ := schema.Index(f.Attr)
		st.filters = append(st.filters, compiledFilter{idx: idx, value: f.Value, negate: f.Negate})
	}
	return st, nil
}

// compileWith finishes compiling an already normalized and mode-validated
// query. probe is a fresh estimator from backend: unwindowed statements
// bind it directly; windowed statements discard it and let the sliding
// vector construct its slot estimators from the factory.
func compileWith(q Query, schema *stream.Schema, backend Backend, probe imps.Estimator) (*Statement, error) {
	st, err := newShell(q, schema)
	if err != nil {
		return nil, err
	}
	if q.Window > 0 {
		sliding, err := window.NewSliding(q.Window, q.Every, func() imps.Estimator {
			e, err := backend(q.Cond)
			if err != nil {
				panic(fmt.Sprintf("query: estimator backend failed after validation: %v", err))
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		st.bindEstimator(sliding)
	} else {
		st.bindEstimator(probe)
	}
	return st, nil
}

// bindEstimator wires est into the statement, caching its optional fast
// paths (byte-key ingest, partitioned ingest) so the per-tuple paths pay no
// interface assertions. Every place a statement receives an estimator —
// compilation, alias registration, checkpoint restore — goes through here.
func (st *Statement) bindEstimator(est imps.Estimator) {
	st.est = est
	st.bytes, _ = est.(imps.BytesAdder)
	st.part, _ = est.(imps.PartitionedAdder)
}

// Query returns the normalized query.
func (st *Statement) Query() Query { return st.query }

// Estimator exposes the bound estimator.
func (st *Statement) Estimator() imps.Estimator { return st.est }

// Process feeds one tuple through the statement's filters and projections.
// Estimators exposing the byte-key path ingest straight from the projection
// buffers; the others cost two key-string allocations per tuple.
func (st *Statement) Process(t stream.Tuple) {
	for _, f := range st.filters {
		if (t[f.idx] == f.value) == f.negate {
			return
		}
	}
	st.bufA = st.projA.AppendKey(st.bufA[:0], t)
	if st.hasB {
		st.bufB = st.projB.AppendKey(st.bufB[:0], t)
	} else {
		st.bufB = st.bufB[:0]
	}
	if st.bytes != nil {
		st.bytes.AddBytes(st.bufA, st.bufB)
		return
	}
	st.est.Add(string(st.bufA), string(st.bufB))
}

// ProcessBatch feeds a batch of tuples through the statement. Equivalent to
// calling Process per tuple, with the statement's filters, projections and
// estimator kept hot across the whole batch.
func (st *Statement) ProcessBatch(ts []stream.Tuple) {
	for i := range ts {
		st.Process(ts[i])
	}
}

// PartitionSafe reports the statement's concurrency class: true when its
// estimator accepts partitioned concurrent ingest (PlanPartitionsHashed /
// ProcessHashedPairs), false when ingest must be serialized through
// ProcessBatchExclusive.
func (st *Statement) PartitionSafe() bool { return st.part != nil }

// PlanPartitionsHashed runs the statement's filters and projections over a
// batch and splits the surviving pairs into parts buckets along the
// estimator's own ingest partitions (parts must be a power of two >= 1).
// Every pair carries the estimator's own key hashes, computed here once so
// the apply path never hashes again. buckets is recycled when it has the
// capacity; the returned slice has length parts.
//
// Planning touches no statement or estimator state — it is safe to call
// concurrently from any number of goroutines, unlike Process/ProcessBatch —
// so batch planning can run on connection readers while workers apply
// earlier batches. Feeding every bucket through ProcessHashedPairs such
// that each bucket's pair order is preserved reproduces the serial
// ProcessBatch state bit for bit; buckets of different batches may be
// applied concurrently as long as same-partition buckets stay ordered.
// Only valid for partition-safe statements.
func (st *Statement) PlanPartitionsHashed(ts []stream.Tuple, parts int, buckets [][]imps.HashedPair) [][]imps.HashedPair {
	if cap(buckets) >= parts {
		buckets = buckets[:parts]
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
	} else {
		buckets = make([][]imps.HashedPair, parts)
	}
	aIdx, aOne := st.projA.Single()
	bIdx, bOne := -1, true
	if st.hasB {
		bIdx, bOne = st.projB.Single()
	}
	fast := aOne && bOne
	var bufA, bufB []byte
	for i := range ts {
		t := ts[i]
		ok := true
		for _, f := range st.filters {
			if (t[f.idx] == f.value) == f.negate {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var a, b string
		if fast {
			// Single-attribute projections: the key IS the tuple's value, so
			// the pair references the batch's own strings and the loop
			// allocates nothing (estimators clone any key they retain).
			a = t[aIdx]
			if st.hasB {
				b = t[bIdx]
			}
		} else {
			bufA = st.projA.AppendKey(bufA[:0], t)
			if st.hasB {
				bufB = st.projB.AppendKey(bufB[:0], t)
			} else {
				bufB = bufB[:0]
			}
			a, b = string(bufA), string(bufB)
		}
		ah, bh := st.part.HashPairKeys(a, b)
		p := st.part.IngestPartitionHashed(ah, parts)
		buckets[p] = append(buckets[p], imps.HashedPair{A: a, B: b, AH: ah, BH: bh})
	}
	return buckets
}

// ProcessHashedPairs feeds one planned partition bucket to the estimator.
// Safe for concurrent use across distinct partitions (the partition
// contract); only valid for partition-safe statements.
func (st *Statement) ProcessHashedPairs(pairs []imps.HashedPair) {
	st.part.AddHashedPairs(pairs)
}

// ProcessBatchExclusive feeds a batch through the statement under its
// exclusive lock — the serialized-class ingest path, which excludes
// concurrent Count readers and Exclusive sections for the duration.
func (st *Statement) ProcessBatchExclusive(ts []stream.Tuple) {
	st.estMu.Lock()
	st.ProcessBatch(ts)
	st.estMu.Unlock()
}

// Exclusive runs f while holding the statement's exclusive lock, blocking
// serialized-class ingest and Count readers. Callers mutating the bound
// estimator from outside the ingest path (snapshot merges) use this to
// coordinate with a concurrent pipeline.
func (st *Statement) Exclusive(f func()) {
	st.estMu.Lock()
	defer st.estMu.Unlock()
	f()
}

// Count returns the query's answer under its mode. It acquires the
// statement's lock shared, so it may run at any time against a live
// pipeline: serialized-class writers hold the lock exclusively, and
// partition-safe estimators synchronize reads internally.
func (st *Statement) Count() float64 {
	st.estMu.RLock()
	defer st.estMu.RUnlock()
	return st.count()
}

func (st *Statement) count() float64 {
	switch st.query.Mode {
	case CountNonImplications:
		return st.est.NonImplicationCount()
	case CountSupported:
		return st.est.SupportedDistinct()
	case CountDistinct:
		// With the defaulted exact one-to-one conditions and a constant B
		// key, every itemset trivially implies; the supported count at
		// τ=1 is the distinct count.
		return st.est.SupportedDistinct()
	case AvgMultiplicity:
		// Compile guarantees the estimator supports the aggregate.
		return st.est.(imps.MultiplicityAverager).AvgMultiplicity()
	default:
		return st.est.ImplicationCount()
	}
}

// Engine runs any number of compiled statements over one tuple stream.
// Statements registered through the same engine share estimators when they
// differ only in what they read off it: the implication count, the
// complement, the supported count and the average multiplicity of one
// (A, B, conditions, filters, window) combination all come from a single
// sketch, so asking all four costs one.
type Engine struct {
	schema *stream.Schema
	stmts  []*Statement
	shared map[string]*Statement
	// tuples is atomic so a concurrent pipeline's workers can publish
	// applied-batch totals while readers poll Tuples.
	tuples atomic.Int64
}

// NewEngine returns an engine bound to the schema.
func NewEngine(schema *stream.Schema) *Engine {
	return &Engine{schema: schema, shared: make(map[string]*Statement)}
}

// shareKey canonicalizes everything about a query except its mode, tied to
// the backend's identity. The identity has two parts: the backend function's
// code pointer AND the configuration fingerprint of an estimator it built
// for these conditions. The code pointer alone is NOT an identity — every
// closure returned by one factory function shares it, so two backends built
// from the same factory with different options would collide and silently
// alias one estimator. The fingerprint is what tells them apart; the code
// pointer is kept so distinct backend functions never share even when their
// configurations coincide.
//
// Statements share only when the probe estimator declares a fingerprint at
// all; an estimator the engine cannot identify is never aliased. The second
// return reports whether the statement may share.
func shareKey(q Query, backend Backend, probe imps.Estimator) (string, bool) {
	if q.Mode == CountDistinct {
		// Distinct counts rewrite the predicate; they never alias an
		// implication estimator.
		return "", false
	}
	fp, ok := probe.(imps.ConfigFingerprinter)
	if !ok {
		return "", false
	}
	mode := q.Mode
	if mode == AvgMultiplicity || mode == CountNonImplications || mode == CountSupported {
		mode = CountImplications
	}
	k := q
	k.Mode = mode
	return fmt.Sprintf("%d|%s|%s", reflect.ValueOf(backend).Pointer(), fp.ConfigFingerprint(), k.String()), true
}

// Register compiles and adds a query; the returned statement can be read at
// any time. Queries over the same predicate registered with the same
// backend share one estimator.
//
// Every registration runs the full validation pipeline — normalization, a
// probe construction from the backend, and the mode check against that
// probe — whether or not it ends up sharing. A registration that would be
// rejected fresh is also rejected when an estimator it could alias happens
// to exist.
func (e *Engine) Register(q Query, backend Backend) (*Statement, error) {
	if backend == nil {
		return nil, fmt.Errorf("query: nil backend")
	}
	if err := q.Normalize(e.schema); err != nil {
		return nil, err
	}
	probe, err := backend(q.Cond)
	if err != nil {
		return nil, err
	}
	if err := validateMode(q, probe); err != nil {
		return nil, err
	}
	key, shareable := shareKey(q, backend, probe)
	if shareable {
		if prev, ok := e.shared[key]; ok {
			st, err := newShell(q, e.schema)
			if err != nil {
				return nil, err
			}
			st.bindEstimator(prev.est)
			// Aliasing statements share the owner's lock: an exclusive
			// writer on the owner excludes readers of every alias.
			st.estMu = prev.estMu
			st.shared = true
			e.stmts = append(e.stmts, st)
			return st, nil
		}
	}
	st, err := compileWith(q, e.schema, backend, probe)
	if err != nil {
		return nil, err
	}
	e.stmts = append(e.stmts, st)
	if shareable {
		e.shared[key] = st
	}
	return st, nil
}

// RegisterSQL parses, compiles and adds a query in the SQL-like dialect.
func (e *Engine) RegisterSQL(sql string, backend Backend) (*Statement, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Register(*q, backend)
}

// Process feeds one tuple to every registered statement, feeding each
// shared estimator exactly once.
func (e *Engine) Process(t stream.Tuple) {
	e.tuples.Add(1)
	for _, st := range e.stmts {
		if st.shared {
			continue
		}
		st.Process(t)
	}
}

// ProcessBatch feeds a batch of tuples to every registered statement,
// feeding each shared estimator exactly once per tuple. Equivalent to
// calling Process per tuple; each statement runs the whole batch before the
// next one starts, so its projections and estimator stay cache-hot.
func (e *Engine) ProcessBatch(ts []stream.Tuple) {
	e.tuples.Add(int64(len(ts)))
	for _, st := range e.stmts {
		if st.shared {
			continue
		}
		st.ProcessBatch(ts)
	}
}

// Consume drains a source through the engine and returns the tuple count.
// Sources that support batched decoding (stream.BatchSource) are drained in
// batches of 256 tuples, amortizing decode and dispatch overhead.
func (e *Engine) Consume(src stream.Source) (int64, error) {
	bs, ok := src.(stream.BatchSource)
	if !ok {
		return stream.Each(src, func(t stream.Tuple) error {
			e.Process(t)
			return nil
		})
	}
	var total int64
	batch := make([]stream.Tuple, 256)
	for {
		n, err := bs.NextBatch(batch)
		if n > 0 {
			e.ProcessBatch(batch[:n])
			total += int64(n)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Tuples returns the number of tuples processed.
func (e *Engine) Tuples() int64 { return e.tuples.Load() }

// AddTuples publishes n applied tuples to the engine's total. The pipeline
// layer feeds statements directly (planned partitions bypass
// Process/ProcessBatch) and accounts for each batch here once it is fully
// applied, so Tuples never runs ahead of estimator state.
func (e *Engine) AddTuples(n int64) { e.tuples.Add(n) }

// Statements returns the registered statements in registration order.
func (e *Engine) Statements() []*Statement { return append([]*Statement(nil), e.stmts...) }
