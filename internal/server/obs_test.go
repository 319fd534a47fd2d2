package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"implicate/internal/client"
	"implicate/internal/obs"
)

// TestServerHealthAndTrace exercises the two observability RPCs end to end:
// a traced server ingests batches, then a client reads the engine's health
// reports and the span ring over the wire.
func TestServerHealthAndTrace(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{
		Schema:     schema,
		Engine:     testEngine(t, schema, sketchBackend(42, nil)),
		TraceSpans: obs.DefaultSpans,
	})
	cl := dialClient(t, srv, schema, client.Options{})

	// 150 distinct sources, two occurrences each: within the statement's
	// multiplicity bound, so the sketch actually sets value bits.
	tuples := makeTuples(300, 150)
	for i := 0; i < 300; i += 100 {
		if err := cl.IngestBatch(tuples[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, cl, 300)

	reports, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d health reports, want 1", len(reports))
	}
	h := reports[0]
	if h.Stmt != 0 || h.Kind != "nips" || h.Shared {
		t.Fatalf("report identity %+v", h)
	}
	if h.Tuples != 300 {
		t.Fatalf("report tuples %d, want 300", h.Tuples)
	}
	if h.BitmapFill <= 0 || h.BitmapFill > 1 {
		t.Fatalf("bitmap fill %v outside (0, 1]", h.BitmapFill)
	}
	if h.MemBytes <= 0 {
		t.Fatalf("mem bytes %d", h.MemBytes)
	}

	spans, err := cl.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced server returned no spans")
	}
	kinds := map[obs.SpanKind]int{}
	for i, sp := range spans {
		kinds[sp.Kind]++
		if i > 0 && spans[i-1].Seq >= sp.Seq {
			t.Fatalf("spans out of order: %d then %d", spans[i-1].Seq, sp.Seq)
		}
		if sp.Kind == obs.SpanApply && (sp.Arg < 0 || int(sp.Arg) >= srv.def.Pool.Workers()) {
			t.Fatalf("apply span attributes worker %d of %d", sp.Arg, srv.def.Pool.Workers())
		}
	}
	// Three ingested batches must have left plan, dispatch and apply spans;
	// the RPCs themselves (including Health above) are traced too.
	for _, k := range []obs.SpanKind{obs.SpanPlan, obs.SpanDispatch, obs.SpanApply, obs.SpanRPC} {
		if kinds[k] == 0 {
			t.Errorf("no %s spans in %v", k, kinds)
		}
	}

	// The Health and Trace RPCs land in the telemetry histograms.
	sn, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Latency[4].Count() == 0 { // RPCHealth
		t.Error("health RPC not observed in telemetry")
	}
	if sn.Latency[5].Count() == 0 { // RPCTrace
		t.Error("trace RPC not observed in telemetry")
	}
}

// TestServerTraceDisabled: an untraced server answers Trace with an empty
// dump, not an error — pollers need not know the server's configuration.
func TestServerTraceDisabled(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend())})
	cl := dialClient(t, srv, schema, client.Options{})

	if srv.Tracer() != nil {
		t.Fatal("tracer allocated with TraceSpans zero")
	}
	spans, err := cl.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("untraced server returned %d spans", len(spans))
	}
}

// TestServerAdminEndpoint drives the HTTP admin surface against a live
// server: /metrics must render telemetry and per-statement health series.
func TestServerAdminEndpoint(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{
		Schema:     schema,
		Engine:     testEngine(t, schema, sketchBackend(42, nil)),
		TraceSpans: 64,
	})
	cl := dialClient(t, srv, schema, client.Options{})
	admin, err := obs.ListenAdmin("127.0.0.1:0", obs.NewAdminMux(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	if err := cl.IngestBatch(makeTuples(200, 10)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, cl, 200)

	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + admin.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"imps_tuples_ingested_total 200",
		"imps_queue_high_water",
		`imps_stmt_bitmap_fill{stmt="0",kind="nips",shared="false"}`,
		`imps_rpc_latency_seconds{rpc="IngestBatch",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
