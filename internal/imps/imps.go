// Package imps holds the shared primitives of the implication-statistics
// framework: the implication conditions of Sismanis & Roussopoulos (ICDE
// 2005, §3.1.1) and the estimator contract every counting algorithm in this
// repository implements (NIPS/CI, the exact hash-table counter, Implication
// Lossy Counting, Distinct Sampling, ...).
package imps

import (
	"errors"
	"fmt"
)

// Conditions are the implication conditions of §3.1.1. An itemset a of A
// implies B, written a → B, when at every point of the stream after its
// support first reaches MinSupport:
//
//  1. it has appeared with at most MaxMultiplicity distinct itemsets of B,
//  2. its support σ(a) is at least MinSupport, and
//  3. its top-c confidence Ψ_c(a,B) = (Σ of the TopC largest σ(a,b)) / σ(a)
//     is at least MinTopConfidence.
//
// Once an itemset that satisfies the support condition fails either of the
// other two it is discarded from the implication count forever (§3.1.1).
type Conditions struct {
	// MaxMultiplicity is K: the maximum number of distinct B-itemsets an
	// implicating A-itemset may appear with.
	MaxMultiplicity int
	// MinSupport is τ: the minimum absolute number of tuples an itemset must
	// appear in before it is considered at all.
	MinSupport int64
	// TopC is c: how many of the largest per-b supports are summed when
	// computing the top-confidence level.
	TopC int
	// MinTopConfidence is ψ ∈ (0,1]: the minimum top-c confidence.
	MinTopConfidence float64
}

// Validate reports whether the conditions are internally consistent.
func (c Conditions) Validate() error {
	switch {
	case c.MaxMultiplicity < 1:
		return fmt.Errorf("imps: MaxMultiplicity must be >= 1, got %d", c.MaxMultiplicity)
	case c.TopC < 1:
		return fmt.Errorf("imps: TopC must be >= 1, got %d", c.TopC)
	case c.TopC > c.MaxMultiplicity:
		return fmt.Errorf("imps: TopC (%d) must not exceed MaxMultiplicity (%d)", c.TopC, c.MaxMultiplicity)
	case c.MinSupport < 1:
		return fmt.Errorf("imps: MinSupport must be >= 1, got %d", c.MinSupport)
	case c.MinTopConfidence <= 0 || c.MinTopConfidence > 1:
		return fmt.Errorf("imps: MinTopConfidence must be in (0,1], got %g", c.MinTopConfidence)
	}
	return nil
}

// String renders the conditions the way the paper writes them.
func (c Conditions) String() string {
	return fmt.Sprintf("K=%d τ=%d ψ%d=%.2f", c.MaxMultiplicity, c.MinSupport, c.TopC, c.MinTopConfidence)
}

// ErrClosed is returned by estimators that reject updates after Close.
var ErrClosed = errors.New("imps: estimator is closed")

// Estimator is the contract shared by all implication-count algorithms.
// Add feeds one (a, b) itemset pair — one stream tuple projected onto the
// A and B attribute sets. Counts may be read at any time.
type Estimator interface {
	// Add observes one tuple whose A-projection encodes to a and whose
	// B-projection encodes to b.
	Add(a, b string)
	// ImplicationCount estimates S: the number of distinct A-itemsets that
	// imply B under the estimator's conditions.
	ImplicationCount() float64
	// NonImplicationCount estimates ~S: the number of distinct A-itemsets
	// that meet the support condition but violate multiplicity or
	// top-confidence.
	NonImplicationCount() float64
	// SupportedDistinct estimates F0^sup(A): the number of distinct
	// A-itemsets meeting the support condition.
	SupportedDistinct() float64
	// Tuples returns the number of tuples observed so far.
	Tuples() int64
	// MemEntries reports the number of counter entries currently held, the
	// measure the paper uses to compare memory footprints.
	MemEntries() int
}

// Pair is one pre-projected tuple: the encoded A- and B-itemsets an Add
// call would receive. Batches of pairs amortize per-tuple call and lock
// overhead on the ingest path.
type Pair struct {
	A, B string
}

// BatchAdder is implemented by estimators that provide an amortized batch
// ingest path. AddBatch must be equivalent to calling Add for each pair in
// order; implementations amortize per-call overhead (and, for concurrent
// estimators, lock traffic) across the batch.
type BatchAdder interface {
	AddBatch(pairs []Pair)
}

// BytesAdder is implemented by estimators that can observe a tuple from
// byte-slice keys without the string conversion allocations of Add. The
// caller may reuse the slices after the call returns.
type BytesAdder interface {
	AddBytes(a, b []byte)
}

// HashedPair is the hash-once plan IR: one tuple's projected keys together
// with the estimator's own hashes of them, computed exactly once at plan
// time by HashPairKeys. The strings stay because exact backends index by
// key, not by hash; the hashes stay because sketch backends route and rank
// by hash, not by key.
type HashedPair struct {
	A, B   string
	AH, BH uint64
}

// PartitionedAdder is implemented by estimators whose ingest path may be
// split across concurrent workers without changing the resulting state —
// the partition-safe class of DESIGN.md §10. The planner hashes each
// projected pair once with the estimator's own seeded hash functions
// (HashPairKeys), routes it by its A hash (IngestPartitionHashed), and the
// workers apply the forwarded hashes (AddHashedPairs) without re-hashing.
// Hashes are estimator-specific, so they must come from the same
// estimator's HashPairKeys. The contract, for n a power of two >= 1:
//
//   - every A hash maps to exactly one partition for a given n, so all
//     tuples of one key land in one partition;
//   - any two ingestion schedules that preserve the relative order of
//     pairs within each partition leave the estimator in identical
//     (bit-for-bit marshalled) state, equal to adding the pairs serially;
//   - concurrent AddHashedPairs calls are safe whenever no two in-flight
//     calls carry pairs of the same partition.
//
// The implementation must choose partitions compatible with its own
// internal routing: the sharded sketch, for example, partitions on the low
// bits of the A hash so that all tuples addressed to one bitmap — where
// arrival order determines overflow kills and fringe push-outs — stay in
// one partition.
type PartitionedAdder interface {
	// HashPairKeys computes this estimator's hashes of one projected pair.
	// Implementations that hash only the A key (exact stores) return bh = 0.
	HashPairKeys(a, b string) (ah, bh uint64)
	// IngestPartitionHashed returns the partition in [0, n) that must
	// ingest the tuple whose A key hashed to ah.
	IngestPartitionHashed(ah uint64, n int) int
	// AddHashedPairs ingests pairs whose hashes were forwarded from
	// HashPairKeys. The caller may reuse the slice after the call returns;
	// implementations must copy any key they retain.
	AddHashedPairs(pairs []HashedPair)
}

// MultiplicityAverager is implemented by estimators that can additionally
// report the average multiplicity |φ(a→B)| over the itemsets currently in
// the implication count — the aggregate of Table 2's "Complex Implication"
// row ("average number of destinations that ... are contacted from more
// than ten sources").
type MultiplicityAverager interface {
	// AvgMultiplicity returns the mean number of distinct B-itemsets per
	// implicating A-itemset, or 0 when the count is empty.
	AvgMultiplicity() float64
}

// ConfigFingerprinter is implemented by estimators whose configuration can
// be summarized as a string: two estimators with equal fingerprints run the
// same algorithm with the same accuracy-relevant parameters and are
// interchangeable for answering one query. The query engine combines the
// fingerprint with the backend's identity to decide when two registrations
// may share a single estimator — comparing configurations is what keeps two
// backends built from the same factory with different parameters (which
// share a closure code pointer) from silently aliasing one estimator.
//
// Auto-derived hash seeds are deliberately excluded from fingerprints:
// backends mint a fresh seed per construction, and the seed affects only
// the randomness of an estimate, never which statistic it answers or how
// accurately.
type ConfigFingerprinter interface {
	// ConfigFingerprint returns a string identifying the estimator's type
	// and configuration (not its state).
	ConfigFingerprint() string
}

// TopSum returns the sum of the c largest values in counts. It mutates a
// scratch copy, not counts itself. The per-itemset counter sets the paper's
// algorithms maintain are tiny (at most K+1 entries), so a partial selection
// pass is cheaper than maintaining a heap.
func TopSum(counts []int64, c int) int64 {
	if c <= 0 || len(counts) == 0 {
		return 0
	}
	if c >= len(counts) {
		var sum int64
		for _, v := range counts {
			sum += v
		}
		return sum
	}
	// Partial selection sort of the c largest values; c and len(counts) are
	// both bounded by K+1.
	scratch := make([]int64, len(counts))
	copy(scratch, counts)
	var sum int64
	for i := 0; i < c; i++ {
		max := i
		for j := i + 1; j < len(scratch); j++ {
			if scratch[j] > scratch[max] {
				max = j
			}
		}
		scratch[i], scratch[max] = scratch[max], scratch[i]
		sum += scratch[i]
	}
	return sum
}

// TopConfidence returns Ψ_c — the top-c confidence of an itemset with the
// given per-b supports and total support. It returns 0 when support is 0.
func TopConfidence(perB []int64, c int, support int64) float64 {
	if support <= 0 {
		return 0
	}
	return float64(TopSum(perB, c)) / float64(support)
}
