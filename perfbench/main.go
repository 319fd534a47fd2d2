// Command perfbench is the repository's benchmark: it runs one named
// workload against in-process servers built from this checkout, checks
// every answer against a reference, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a serial traced replay
// (--trace 1). The last line of standard output is the JSON result. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// minRounds is the fewest measured rounds a run makes, however long they
// take.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: leaf-sketch, leaf-exact-mixed or fleet-sketch")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v --seed N --seconds >=1 --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if err := run(os.Stdout, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, dur time.Duration, traced bool) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	dir, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	prepStart := time.Now()
	w, err := prepare(name, seed, fullScale, dir)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", name, err)
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, dur.Seconds(), traced)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
	fmt.Fprintf(out, "config: tuples/round=%d batches/round=%d producers=%d window=%d offered=%s ops=%v every %v quiet reads=%d×%v workers=%d; prep %.1fs\n",
		w.tuples, len(w.batches()), len(w.producers), w.window, offered(w), w.ops, w.opEvery,
		w.quietReads, w.quietOps, nproc, time.Since(prepStart).Seconds())

	var res result
	if traced {
		res, err = runTraced(out, w, nproc, dur, dir)
	} else {
		res, err = runEndToEnd(out, w, nproc, dur)
	}
	if err != nil && res.Attempted == 0 {
		return err
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	if err != nil {
		fmt.Fprintf(out, "FAILED: %v\n", err)
	}
	fmt.Fprintln(out, string(line))
	if err != nil {
		return fmt.Errorf("run failed its correctness gate: %w", err)
	}
	return nil
}

func offered(w *workload) string {
	if w.interval == 0 {
		return "closed loop"
	}
	return fmt.Sprintf("%.0f tuples/s", float64(batchTuples)/w.interval.Seconds())
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

// runEndToEnd runs an untimed warm-up round, then fresh-system rounds
// with a GC between them until dur has passed, and reports medians over
// rounds and percentiles over every round's pooled samples.
func runEndToEnd(out io.Writer, w *workload, nproc int, dur time.Duration) (result, error) {
	if _, err := runRound(w, nproc); err != nil {
		return result{}, fmt.Errorf("warm-up round: %w", err)
	}
	var rounds []*roundResult
	var roundErr error
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < dur {
		r, err := runRound(w, nproc)
		if r == nil {
			return result{}, err
		}
		rounds = append(rounds, r)
		if err != nil {
			roundErr = fmt.Errorf("round %d: %w", len(rounds), err)
			break
		}
	}
	res := result{Correct: roundErr == nil, Metrics: map[string]metric{}}
	for _, r := range rounds {
		a, f := r.attempts()
		res.Attempted += a
		res.Failed += f
	}
	m, err := endToEndMetrics(out, rounds)
	if err != nil && roundErr == nil {
		roundErr = err
		res.Correct = false
	}
	res.Metrics = m
	fmt.Fprintf(out, "rounds=%d failed_frac=%g (%d of %d calls)\n", len(rounds),
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, roundErr
}

// endToEndMetrics reduces rounds to the end-to-end metrics, printing each
// with its sample count.
func endToEndMetrics(out io.Writer, rounds []*roundResult) (map[string]metric, error) {
	m := map[string]metric{}
	var firstErr error
	put := func(name, unit string, v float64, samples int, err error) {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			v = math.NaN()
		}
		if !math.IsNaN(v) {
			m[name] = metric{v, unit}
		}
		fmt.Fprintf(out, "  %-18s %14.6f %-7s n=%d\n", name, v, unit, samples)
	}
	perRound := func(f func(r *roundResult) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	// Per-round sample sets, so a percentile can be taken round by round.
	acks := make([][]float64, len(rounds))
	lags := make([][]float64, len(rounds))
	ops := map[string][][]float64{"query": make([][]float64, len(rounds)), "health": make([][]float64, len(rounds))}
	for i, r := range rounds {
		for _, b := range r.acks {
			acks[i] = append(acks[i], msOf(b.ackLatency()))
			lags[i] = append(lags[i], msOf(b.sendLag()))
		}
		for _, o := range r.ops {
			ops[o.Kind][i] = append(ops[o.Kind][i], msOf(o.Lat))
		}
	}
	n := len(rounds)
	put("setup_s", "s", median(perRound(func(r *roundResult) float64 { return r.setup.Seconds() })), n, nil)
	put("ingest_tps", "1/s", median(perRound(func(r *roundResult) float64 { return float64(r.tuples) / r.ingest.Seconds() })), n, nil)
	pct := func(name string, sets [][]float64, q float64) {
		v, samples, err := roundsPercentile(sets, q)
		put(name, "ms", v, samples, err)
	}
	pct("ack_p50_ms", acks, 0.5)
	pct("ack_p99_ms", acks, 0.99)
	pct("send_lag_p99_ms", lags, 0.99)
	pct("query_p50_ms", ops["query"], 0.5)
	pct("query_p90_ms", ops["query"], 0.9)
	pct("health_p50_ms", ops["health"], 0.5)
	pct("health_p90_ms", ops["health"], 0.9)
	put("cpu_s_per_mtuple", "s", median(perRound(func(r *roundResult) float64 { return r.cpu.Seconds() / float64(r.tuples) * 1e6 })), n, nil)
	put("allocs_per_batch", "count", median(perRound(func(r *roundResult) float64 { return float64(r.allocs) / float64(r.batches) })), n, nil)
	put("heap_live_mb", "MiB", median(perRound(func(r *roundResult) float64 { return r.heapMB })), n, nil)
	return m, firstErr
}

// runTraced runs one live round for the program's own counters, then
// alternates untraced and traced replays until dur has passed, and
// reports the per-layer metrics, the stage table and the tracing
// overhead.
func runTraced(out io.Writer, w *workload, nproc int, dur time.Duration, dir string) (result, error) {
	live, err := runRound(w, nproc)
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	if live != nil {
		res.Attempted, res.Failed = live.attempts()
	}
	if err != nil {
		return res, fmt.Errorf("live round: %w", err)
	}
	batches := w.batches()
	var plain, traced []*replayResult
	var tracers []*tracer
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < dur {
		for _, on := range []bool{false, true} {
			runtime.GC()
			var tr *tracer
			if on {
				tr = newTracer()
			}
			r, err := replay(tr, w, batches, nproc, dir)
			res.Attempted++
			if err == nil && r.count != w.expect {
				err = fmt.Errorf("replay count %v, reference %v", r.count, w.expect)
			}
			if err != nil {
				res.Failed++
				res.Correct = false
				return res, fmt.Errorf("replay: %w", err)
			}
			if on {
				traced, tracers = append(traced, r), append(tracers, tr)
			} else {
				plain = append(plain, r)
			}
		}
	}

	tr, r := tracers[0], traced[0]
	rows := stageTable(tr.spans, phaseLabels(tr.spans))
	fmt.Fprintf(out, "stage table, traced replay 1 of %d (%d batches): wall %.2f ms, root span %.2f ms\n",
		len(traced), len(batches), float64(r.wall)/1e6, float64(tr.spans[0].End-tr.spans[0].Start)/1e6)
	printStages(out, rows, tr.spans[0].End-tr.spans[0].Start, pathStages(w))
	checkPredictions(out, w, rows)
	spanFile := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s.jsonl", w.name))
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spanFile)

	walls := func(rs []*replayResult) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.wall) / 1e6
		}
		return out
	}
	overhead := median(walls(traced)) - median(walls(plain))
	fmt.Fprintf(out, "tracing overhead: traced %.2f ms - untraced %.2f ms = %.2f ms (%d pairs)\n",
		median(walls(traced)), median(walls(plain)), overhead, len(traced))
	res.Metrics = perLayerMetrics(w, live, tracers, traced)
	res.Metrics["replay.wall_ms"] = metric{median(walls(plain)), "ms"}
	res.Metrics["replay.trace_overhead_ms"] = metric{overhead, "ms"}
	return res, nil
}
