package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"implicate"
	"implicate/internal/proto"
)

func TestParseFlags(t *testing.T) {
	cfg, rest, err := parseFlags([]string{
		"-listen", ":0", "-leaves", "a=1:1,b=2:2", "-schema", "A,B",
		"-q", "q1", "-q", "q2", "-parts", "16", "-probe-fails", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.listen != ":0" || cfg.leaves != "a=1:1,b=2:2" || len(cfg.queries) != 2 ||
		cfg.queries[1] != "q2" || cfg.parts != 16 || cfg.probeFails != 5 || len(rest) != 0 {
		t.Fatalf("parsed %+v %v", cfg, rest)
	}
	if _, _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestParseLeaves(t *testing.T) {
	specs, err := parseLeaves(" leaf0 = 127.0.0.1:7101 , leaf1=127.0.0.1:7102 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "leaf0" || specs[0].Addr != "127.0.0.1:7101" ||
		specs[1].Name != "leaf1" || specs[1].Addr != "127.0.0.1:7102" {
		t.Fatalf("parsed %+v", specs)
	}
	for _, bad := range []string{"", "noaddr", "=addr", "name=", "a=1,a=2"} {
		if _, err := parseLeaves(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestValidateFlagCombinations(t *testing.T) {
	base := func() config {
		return config{
			listen: ":0", leaves: "a=1:1,b=2:2", schema: "A,B", queries: queryList{"x"},
			parts: 64, flush: 512, probeEvery: time.Millisecond,
			probeTimeout: time.Millisecond, probeFails: 1, drainTimeout: time.Second,
		}
	}
	cases := []struct {
		name    string
		mut     func(*config)
		wantErr string
	}{
		{"ok", func(c *config) {}, ""},
		{"missing schema", func(c *config) { c.schema = "" }, "-schema"},
		{"missing query", func(c *config) { c.queries = nil }, "-q"},
		{"missing leaves", func(c *config) { c.leaves = "" }, "-leaves"},
		{"bad leaves", func(c *config) { c.leaves = "justanaddr" }, "name=addr"},
		{"parts not power of two", func(c *config) { c.parts = 48 }, "-parts"},
		{"parts under fleet", func(c *config) { c.parts = 1 }, "cannot cover"},
		{"zero flush", func(c *config) { c.flush = 0 }, "-flush"},
		{"flush at the leaf batch bound", func(c *config) { c.flush = proto.MaxBatchTuples }, ""},
		{"flush over the leaf batch bound", func(c *config) { c.flush = proto.MaxBatchTuples + 1 }, "-flush"},
		{"zero probe fails", func(c *config) { c.probeFails = 0 }, "-probe-fails"},
		{"zero probe period", func(c *config) { c.probeEvery = 0 }, "positive"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid combination accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// Smoke-test fixtures: the same statements on every node, backed by
// merge-compatible sketches (one shared seed, like every leaf running
// impserved with the same -seed).
var smokeSQL = queryList{
	`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
	`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
}

const smokeSeed = 7

func smokeEngine(t *testing.T, schema *implicate.Schema) *implicate.Engine {
	t.Helper()
	backend := implicate.SketchBackend(implicate.Options{Seed: smokeSeed})
	eng := implicate.NewEngine(schema)
	for _, sql := range smokeSQL {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func smokeLeaf(t *testing.T, schema *implicate.Schema, addr, ckpt string, eng *implicate.Engine) *implicate.Server {
	t.Helper()
	srv, err := implicate.Serve(implicate.ServerConfig{
		Addr:            addr,
		Schema:          schema,
		Engine:          eng,
		Workers:         2,
		CheckpointPath:  ckpt,
		CheckpointEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func smokeTuples(n int) []implicate.Tuple {
	ts := make([]implicate.Tuple, n)
	for i := range ts {
		ts[i] = implicate.Tuple{fmt.Sprintf("s%d", i%97), fmt.Sprintf("d%d", (i*7)%13)}
	}
	return ts
}

func mustSchema(t *testing.T, names ...string) *implicate.Schema {
	t.Helper()
	s, err := implicate.NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterSmoke is the end-to-end fleet path `make cluster-smoke`
// exercises through the test binary: impcoordd fronts three impserved
// leaves over loopback, producers ingest through the wire front-end, one
// leaf is killed mid-stream and restarted from its checkpoint on the same
// address (the operator recovery the daemon's docs prescribe — no Restart
// hook), and the fleet's final merged state must be bit-identical to an
// uncrashed shadow fleet fed the same stream.
func TestClusterSmoke(t *testing.T) {
	const (
		nLeaves = 3
		victim  = 1
		total   = 6000
		batch   = 200
		killAt  = total / 3
	)
	schema := mustSchema(t, "A", "B")
	dir := t.TempDir()

	// The main fleet: three leaves with checkpoints, then the daemon.
	srvs := make([]*implicate.Server, nLeaves)
	names := make([]string, nLeaves)
	ckpts := make([]string, nLeaves)
	var leafFlag []string
	for i := range srvs {
		names[i] = fmt.Sprintf("leaf%d", i)
		ckpts[i] = filepath.Join(dir, names[i]+".ckpt")
		srvs[i] = smokeLeaf(t, schema, "127.0.0.1:0", ckpts[i], smokeEngine(t, schema))
		leafFlag = append(leafFlag, names[i]+"="+srvs[i].Addr())
	}
	defer func() {
		for _, srv := range srvs {
			srv.Kill()
		}
	}()

	cfg := &config{
		listen: "127.0.0.1:0",
		leaves: strings.Join(leafFlag, ","),
		schema: "A, B",
		// flush=1 journals every routed tuple immediately, so the fleet-wide
		// applied count observable through Query reaches the ingested total
		// without an explicit flush RPC (the wire has none; Flush runs at
		// shutdown).
		queries: smokeSQL, parts: 64, flush: 1,
		probeEvery: 10 * time.Millisecond, probeTimeout: 250 * time.Millisecond,
		probeFails: 2, drainTimeout: 30 * time.Second,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan coordAddrs, 1)
	stop := make(chan struct{})
	var out strings.Builder
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(cfg, ready, stop, &out) }()
	var feAddr string
	select {
	case a := <-ready:
		feAddr = a.front
	case err := <-serveErr:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not come up")
	}

	// The shadow fleet: same leaf names (identical routing), fresh ports,
	// never crashed. Its coordinator runs in-process.
	shadowSrvs := make([]*implicate.Server, nLeaves)
	shadowSpecs := make([]implicate.LeafSpec, nLeaves)
	for i := range shadowSrvs {
		shadowSrvs[i] = smokeLeaf(t, schema, "127.0.0.1:0", "", smokeEngine(t, schema))
		shadowSpecs[i] = implicate.LeafSpec{Name: names[i], Addr: shadowSrvs[i].Addr()}
		defer shadowSrvs[i].Kill()
	}
	shadow, err := implicate.NewCoordinator(implicate.CoordinatorConfig{
		Schema: schema, Statements: smokeSQL, Leaves: shadowSpecs,
		VirtualPartitions: cfg.parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	cl, err := implicate.Dial(feAddr, schema, implicate.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tuples := smokeTuples(total)
	for off := 0; off < total; off += batch {
		chunk := tuples[off : off+batch]
		if err := cl.IngestBatch(chunk); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Ingest(chunk); err != nil {
			t.Fatal(err)
		}
		if off+batch == killAt {
			// The victim dies abruptly: connections cut, queued batches
			// lost, no final checkpoint. Restart it from the last periodic
			// checkpoint on the SAME address — the daemon has no restart
			// hook, so recovery waits for exactly this operator move.
			addr := srvs[victim].Addr()
			srvs[victim].Kill()
			snap, err := implicate.ReadCheckpoint(ckpts[victim])
			var eng *implicate.Engine
			switch {
			case err == nil:
				if eng, err = implicate.RestoreCheckpoint(snap, schema, nil); err != nil {
					t.Fatal(err)
				}
			case errors.Is(err, os.ErrNotExist):
				eng = smokeEngine(t, schema)
			default:
				t.Fatal(err)
			}
			srvs[victim] = smokeLeaf(t, schema, addr, ckpts[victim], eng)
		}
	}

	// Quiesce: every routed tuple is journaled (flush=1), so the fleet-wide
	// applied total reaching the ingested total means every leaf applied
	// everything — including the recovered victim's replay.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := cl.Query(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck at %d of %d tuples", res.Tuples, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := shadow.Flush(); err != nil {
		t.Fatal(err)
	}

	// Bit-identity: merged sketch bytes and query answers must match the
	// uncrashed shadow exactly, per statement.
	for stmt := range smokeSQL {
		got, err := cl.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shadow.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Sketch, want.Sketch) {
			t.Errorf("stmt %d: crashed fleet's merged sketch differs from the uncrashed shadow (%d vs %d bytes)",
				stmt, len(got.Sketch), len(want.Sketch))
		}
		if got.Tuples != total || got.Kind != "nips" {
			t.Errorf("stmt %d: snapshot %d tuples kind %q", stmt, got.Tuples, got.Kind)
		}
		gotQ, err := cl.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := shadow.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotQ.Count) != math.Float64bits(wantQ.Count) {
			t.Errorf("stmt %d: count %v differs from shadow %v", stmt, gotQ.Count, wantQ.Count)
		}
	}

	// Membership through the wire: the victim is back up with a bumped
	// epoch, and the route table is fully assigned.
	cs, err := cl.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Leaves) != nLeaves || cs.VirtualPartitions != uint32(cfg.parts) {
		t.Fatalf("cluster %+v", cs)
	}
	var parts uint32
	for i, lf := range cs.Leaves {
		parts += lf.Parts
		if lf.State != implicate.LeafUp {
			t.Errorf("leaf %d state %d, want up", i, lf.State)
		}
	}
	if parts != uint32(cfg.parts) {
		t.Errorf("route table assigns %d partitions, want %d", parts, cfg.parts)
	}
	if cs.Leaves[victim].Epoch < 1 {
		t.Errorf("victim epoch %d, want >= 1", cs.Leaves[victim].Epoch)
	}

	// Graceful shutdown prints the summary.
	close(stop)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
	if !strings.Contains(out.String(), "stmt 0:") || !strings.Contains(out.String(), "fleet: 3 leaves") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
}
