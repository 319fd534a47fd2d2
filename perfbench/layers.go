package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// perLayerMetrics reduces the traced replays (medians over replays) and
// the live round's program counters to the per-layer metrics.
func perLayerMetrics(w *workload, live *roundResult, tracers []*tracer, traced []*replayResult) map[string]metric {
	perReplay := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		perReplay[name] = append(perReplay[name], v)
		units[name] = unit
	}
	for i, tr := range tracers {
		r := traced[i]
		leaf := tr.spans[r.leafSpans[0]:r.leafSpans[1]]
		fleet := tr.spans[r.fleetSpans[0]:r.fleetSpans[1]]
		path := leaf
		if w.fleet {
			path = fleet
		}
		us, msec := time.Microsecond, time.Millisecond
		add("client.encode_us_per_batch", "us", perCall(leaf, "client.encode", us))
		add("proto.frame_us_per_batch", "us", perCall(path, "proto.frame", us))
		add("proto.read_us_per_batch", "us", perCall(path, "proto.read", us))
		add("proto.wire_bytes_per_tuple", "B", r.wireBytesPerTuple)
		add("stream.decode_us_per_batch", "us", perCall(path, "stream.decode", us))
		add("pipeline.plan_us_per_batch", "us", perCall(leaf, "pipeline.plan", us))
		add("pipeline.dispatch_us_per_batch", "us", perCall(leaf, "pipeline.dispatch", us))
		add("pipeline.apply_wait_ms", "ms", perCall(leaf, "pipeline.fence", msec))
		add("query.apply_us_per_batch", "us", perCall(leaf, "query.apply", us))
		add("query.count_us", "us", perCall(leaf, "query.count", us))
		add("query.health_ms", "ms", perCall(leaf, "query.health", msec))
		coreAdd, _ := sumDur(leaf, "core.add")
		exactAdd, _ := sumDur(leaf, "exact.add")
		add("core.add_ns_per_tuple", "ns", float64(coreAdd)/float64(r.tuples))
		add("core.state_kb", "KiB", r.coreStateKB)
		add("core.fringe_evictions", "count", r.coreEvictions)
		add("exact.add_ns_per_tuple", "ns", float64(exactAdd)/float64(r.tuples))
		add("exact.health_ms", "ms", perCall(leaf, "exact.health", msec))
		add("exact.state_mb", "MiB", r.exactStateMB)
		add("checkpoint.read_ms", "ms", perCall(leaf, "checkpoint.read", msec))
		add("checkpoint.restore_ms", "ms", perCall(leaf, "checkpoint.restore", msec))
		add("coord.ingest_us_per_batch", "us", perCall(fleet, "coord.ingest", us))
		add("coord.flush_ms", "ms", perCall(fleet, "coord.flush", msec))
		add("coord.query_ms", "ms", perCall(fleet, "coord.query", msec))
		add("coord.delivery_p99_ms", "ms", histQuantileMs(r.delivery, 0.99))
		add("coord.journal_high_water", "count", float64(r.journalHighWater))
	}
	m := map[string]metric{}
	for name, vs := range perReplay {
		m[name] = metric{median(vs), units[name]}
	}
	m["stream.decode_allocs_per_batch"] = metric{decodeAllocs(w), "count"}

	// Program counters from the live round. On a fleet the pipeline rows
	// sum (saturation) or take the worst (high water, skew) over leaves,
	// and the server rows are the front-end's, the server the client sees.
	workers := live.stats.Workers
	sat, high, rejected := live.stats.PoolSaturation, live.stats.QueueHighWater, live.stats.BatchesRejected
	if w.fleet {
		workers, sat, high = nil, 0, 0
		for _, l := range live.leafStats {
			workers = append(workers, l.Stats.Workers...)
			sat += l.Stats.PoolSaturation
			high = max(high, l.Stats.QueueHighWater)
			rejected += l.Stats.BatchesRejected
		}
	}
	m["pipeline.pool_saturation"] = metric{float64(sat), "count"}
	m["pipeline.queue_high_water"] = metric{float64(high), "count"}
	m["pipeline.worker_units_skew"] = metric{unitsSkew(workers), "ratio"}
	lat := live.stats.Latency
	m["server.ingest_rpc_p50_ms"] = metric{histQuantileMs(lat[telemetry.RPCIngest], 0.5), "ms"}
	m["server.ingest_rpc_p99_ms"] = metric{histQuantileMs(lat[telemetry.RPCIngest], 0.99), "ms"}
	m["server.query_rpc_p99_ms"] = metric{histQuantileMs(lat[telemetry.RPCQuery], 0.99), "ms"}
	m["server.health_rpc_p99_ms"] = metric{histQuantileMs(lat[telemetry.RPCHealth], 0.99), "ms"}
	m["server.batches_rejected"] = metric{float64(rejected), "count"}
	return m
}

// unitsSkew is the busiest worker's work units over the mean: 1 is even,
// the worker count means one worker did everything.
func unitsSkew(ws []telemetry.WorkerStats) float64 {
	var sum, top int64
	for _, w := range ws {
		sum += w.Units
		top = max(top, w.Units)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(ws)) / float64(sum)
}

// decodeAllocs is the heap allocations per batch of decoding every batch
// into one recycled arena, as a connection reader does.
func decodeAllocs(w *workload) float64 {
	hdr := len(stream.BinaryHeader(w.schema))
	var ar stream.RecordArena
	bs := w.batches()
	a0 := heapAllocs()
	for _, b := range bs {
		if _, err := ar.DecodeBinaryRecords(b.payload[hdr:], w.schema.Len(), batchTuples); err != nil {
			panic(err) // the replay decoded these same payloads
		}
		ar.Reset()
	}
	return float64(heapAllocs()-a0) / float64(len(bs))
}

// pathStages returns the stage labels on w's serving path.
func pathStages(w *workload) map[string]bool {
	var names []string
	if w.fleet {
		names = []string{"fleet/setup", "fleet/proto.frame", "fleet/proto.read", "fleet/stream.decode",
			"fleet/coord.ingest", "fleet/coord.query", "fleet/coord.flush"}
	} else {
		names = []string{"leaf/proto.frame", "leaf/proto.read", "leaf/stream.decode",
			"leaf/pipeline.plan", "leaf/pipeline.dispatch", "leaf/pipeline.fence"}
		if w.ckpt != "" {
			names = append(names, "leaf/checkpoint.read", "leaf/checkpoint.restore", "leaf/query.count", "leaf/query.health")
		} else {
			names = append(names, "leaf/setup")
		}
	}
	out := map[string]bool{}
	for _, n := range names {
		out[n] = true
	}
	return out
}

// prediction is the claim the traced run checks for a workload: the named
// stages hold most of the serving path's self time.
var predictions = map[string]struct {
	claim  string
	stages []string
}{
	"leaf-sketch":      {"frame read, decode and plan hold most of the path's self time", []string{"leaf/proto.read", "leaf/stream.decode", "leaf/pipeline.plan"}},
	"leaf-exact-mixed": {"exact apply and Health hold most of the path's self time", []string{"leaf/pipeline.fence", "leaf/query.health"}},
	"fleet-sketch":     {"the coordinator's calls hold most of the path's self time", []string{"fleet/coord.ingest", "fleet/coord.query", "fleet/coord.flush"}},
}

// checkPredictions prints the workload's prediction and whether the stage
// table confirms it.
func checkPredictions(out io.Writer, w *workload, rows []stage) {
	path := pathStages(w)
	p := predictions[w.name]
	var pathSelf, claimed time.Duration
	for _, r := range rows {
		if !path[r.Name] {
			continue
		}
		pathSelf += r.Self
		if slices.Contains(p.stages, r.Name) {
			claimed += r.Self
		}
	}
	var top []string
	for _, r := range rows {
		if path[r.Name] && len(top) < 3 {
			top = append(top, fmt.Sprintf("%s %.1f%%", r.Name, 100*float64(r.Self)/float64(pathSelf)))
		}
	}
	share := float64(claimed) / float64(pathSelf)
	verdict := "confirmed"
	if share <= 0.5 {
		verdict = "NOT confirmed"
	}
	fmt.Fprintf(out, "prediction (%s): %s — %s: %.1f%% of %.2f ms path self time; largest path stages: %s\n",
		w.name, p.claim, verdict, 100*share, float64(pathSelf)/1e6, strings.Join(top, ", "))
}
