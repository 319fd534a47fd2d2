package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"implicate/internal/telemetry"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 needs 1000 samples and a
// p90 needs 100. Below that the highest sample decides the figure alone.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by linear
// interpolation between closest ranks, together with the sample count.
// It fails when fewer than minTail samples lie beyond the quantile.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	// The epsilon absorbs float rounding: 100*(1-0.9) is 9.999...
	if beyond := float64(n) * (1 - q); beyond < minTail-1e-9 {
		return 0, fmt.Errorf("p%g: %d samples leave %.1f beyond it, want >= %d", q*100, n, beyond, minTail)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return interpolate(s, q), nil
}

// interpolate reads the q-quantile off sorted samples.
func interpolate(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle of samples (the mean of the two middle ones for
// an even count). The median of nothing is NaN, which never passes a gate.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return interpolate(s, 0.5)
}

// roundsPercentile reduces per-round sample sets to one q-quantile. Rounds
// are taken in order into blocks, each just large enough for the
// percentile rule (one round per block when a round alone suffices); the
// figure is the median over blocks of each block's percentile, which a
// burst of host noise in one block cannot move. Rounds left over at the
// end join the last block. samples is the count the figure rests on.
func roundsPercentile(sets [][]float64, q float64) (v float64, samples int, err error) {
	need := int(math.Ceil(minTail/(1-q) - 1e-9))
	var blocks [][]float64
	var cur []float64
	for _, s := range sets {
		cur = append(cur, s...)
		samples += len(s)
		if len(cur) >= need {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	if len(blocks) == 0 {
		_, err := percentile(cur, q)
		return 0, samples, err
	}
	blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	per := make([]float64, len(blocks))
	for i, b := range blocks {
		if per[i], err = percentile(b, q); err != nil {
			return 0, samples, err
		}
	}
	return median(per), samples, nil
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histQuantileMs reads the q-quantile of a telemetry histogram in
// milliseconds. The histogram's own Quantile answers with a bucket's upper
// bound, a power of two that reads the same on most runs; this interpolates
// linearly by rank inside the bucket (bucket b holds (2^(b-1), 2^b] ns).
func histQuantileMs(h telemetry.Histogram, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			hi := math.Ldexp(1, b)
			lo := hi / 2
			if b == 0 {
				lo = 0
			}
			ns := lo + (hi-lo)*(rank-seen)/float64(c)
			return ns / 1e6
		}
		seen += float64(c)
	}
	return math.Ldexp(1, telemetry.HistBuckets-1) / 1e6
}
