// The leaf's per-connection handler on the shared wire skeleton
// (internal/wiresrv, DESIGN.md §12): tenant pinning, the reader-side
// ingest fast path, and the control-plane RPCs. The skeleton owns the
// framing, the coalescing reply writer, the latency histogram and the RPC
// span.
package server

import (
	"fmt"
	"time"

	"implicate/internal/obs"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
	"implicate/internal/tenant"
	"implicate/internal/wiresrv"
)

// conn is one connection's session: which tenant requests resolve
// against, and whether a TAuth frame has pinned it. Only the connection's
// reader goroutine calls it, so it needs no lock. Every connection starts
// on the implicit default tenant — a client that never authenticates sees
// exactly the single-tenant server.
type conn struct {
	s      *Server
	tenant *tenant.Tenant
	authed bool
}

// Handle dispatches one request frame against the connection's pinned
// tenant.
func (c *conn) Handle(f proto.Frame) (wiresrv.Reply, telemetry.RPC) {
	s, t := c.s, c.tenant
	switch f.Type {
	case proto.TIngest:
		return s.handleIngest(f, t), telemetry.RPCIngest
	case proto.TQuery:
		return s.handleQuery(f, t), telemetry.RPCQuery
	case proto.TMerge:
		return s.handleMerge(f, t), telemetry.RPCMerge
	case proto.TStats:
		return wiresrv.Result(s.snapshot().Encode()), telemetry.RPCStats
	case proto.THealth:
		return s.handleHealth(t), telemetry.RPCHealth
	case proto.TTrace:
		// No lock: the tracer is its own synchronization, and a disabled
		// tracer encodes as an empty dump rather than an error so pollers
		// need not know the server's configuration.
		return wiresrv.Result(obs.EncodeSpans(s.tracer.Snapshot())), telemetry.RPCTrace
	case proto.TUDPAck:
		return s.handleUDPAck(f), telemetry.RPCUDPAck
	case proto.TSnapshot:
		return s.handleSnapshot(f, t), telemetry.RPCSnapshot
	case proto.TBoot:
		return wiresrv.Result(proto.Boot{Nonce: s.boot}.Encode()), telemetry.RPCBoot
	case proto.TAuth:
		return c.auth(f), telemetry.RPCAuth
	}
	return wiresrv.Error(fmt.Sprintf("unsupported request type %s", f.Type)), wiresrv.NoRPC
}

// auth pins the connection to a tenant. A session authenticates at most
// once — re-pinning mid-stream would let one connection's pipelined
// batches straddle two engines, so a second TAuth is an error. The default
// tenant may be named explicitly (token still verified when a key is set);
// connections that never send TAuth serve it implicitly, which is the
// whole backward-compatibility story.
func (c *conn) auth(f proto.Frame) wiresrv.Reply {
	req, err := proto.DecodeAuthReq(f.Payload)
	if err != nil {
		return wiresrv.Error(err.Error())
	}
	if c.authed {
		return wiresrv.Error("auth: session already pinned to a tenant")
	}
	s := c.s
	var t *tenant.Tenant
	if req.Tenant == tenant.DefaultName {
		if !tenant.VerifyToken(s.cfg.TokenKey, req.Tenant, req.Token) {
			return wiresrv.Error(fmt.Sprintf("tenant %q: unknown tenant or bad token", req.Tenant))
		}
		t = s.def
	} else {
		t, err = s.reg.Authenticate(req.Tenant, req.Token)
		if err != nil {
			return wiresrv.Error(err.Error())
		}
	}
	c.tenant = t
	c.authed = true
	return wiresrv.Frame(proto.TOK, nil)
}

// handleIngest is the reader-side ingest path: lease a recycled batch from
// the tenant's pool, decode straight from the frame buffer into its arena,
// plan on this goroutine, enqueue, and acknowledge. In steady state the
// only per-frame allocation left is the batch's record string (which the
// decoded keys alias); every other buffer — tuples, partition buckets,
// tasks — is the leased batch's warm memory, returned to the pool when the
// batch's last statement applies.
func (s *Server) handleIngest(f proto.Frame, t *tenant.Tenant) wiresrv.Reply {
	b := t.Pool.NewBatch()
	tuples, err := stream.DecodeBatch(f.Payload, s.cfg.Schema, b.Arena(), s.cfg.MaxBatchTuples)
	switch {
	case err != nil:
		b.Release()
		return wiresrv.Error(fmt.Sprintf("ingest: %v", err))
	case s.wire.Draining():
		b.Release()
		return wiresrv.Error("ingest: server is shutting down")
	}
	// The inbound trace context (zero on untraced frames) parents every
	// span this batch produces — plan, dispatch, apply, and the RPC span —
	// so a coordinator's delivery span adopts the whole leaf-side story.
	return s.admitIngest(t, b, tuples, obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent})
}

// admitIngest runs the tenant admission sequence for one decoded batch:
// quota check first (a refusal is a TQuota reply carrying the retry hint,
// charged before planning so no partial state exists anywhere), then plan,
// then the lane offer — blocking or busy-refusing per Config.BlockOnFull.
// Every refusal path releases the leased batch; a successful enqueue
// transfers ownership to the dispatcher, so nothing here touches b after
// the lane accepts it.
func (s *Server) admitIngest(t *tenant.Tenant, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link) wiresrv.Reply {
	n := int64(len(tuples))
	if q := t.Admit(len(tuples), time.Now()); q != nil {
		b.Release()
		return wiresrv.Frame(proto.TQuota, proto.Quota{Msg: q.Msg, RetryAfter: q.RetryAfter}.Encode())
	}
	s.planInto(t, b, tuples, link)
	var depth int
	var ok bool
	if s.cfg.BlockOnFull {
		// Blocking backpressure: the reader waits for lane room, so
		// pipelined frames on this connection are never refused and never
		// reordered by a re-send (the dispatcher keeps draining, so the
		// wait always ends, including during shutdown). The wait holds up
		// this tenant's producers only.
		depth, ok = t.Lane.Enqueue(b)
		if !ok {
			b.Release()
			return wiresrv.Error("ingest: tenant dropped or server shutting down")
		}
	} else if depth, ok = t.Lane.TryEnqueue(b); !ok {
		b.Release()
		if t.Lane.Closed() {
			return wiresrv.Error("ingest: tenant dropped or server shutting down")
		}
		t.AddRejected()
		s.tel.AddRejectedBatch()
		return wiresrv.Busy(s.cfg.RetryAfter)
	}
	t.AddBatch()
	s.tel.AddBatch()
	s.tel.ObserveQueueDepth(depth)
	return wiresrv.Ack(n)
}

// planInto runs the pure planning stage — filters, projections, partition
// hashing (once, forwarded to the estimators) — on the caller's goroutine
// against the tenant's pool, into the leased batch's recycled buffers.
// Connection readers and the UDP lane both call it; the dispatcher never
// does. The link (zero when the inbound frame carried no trace context)
// parents the plan span here and rides the batch to parent its dispatch
// and apply spans downstream.
func (s *Server) planInto(t *tenant.Tenant, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link) *pipeline.Batch {
	var planStart time.Time
	if s.tracer != nil {
		planStart = time.Now()
		b.SetLink(link)
	}
	t.Pool.PlanInto(b, tuples)
	if s.tracer != nil {
		s.tracer.SpanLinked(link, obs.SpanPlan, -1, int64(len(tuples)), planStart)
	}
	return b
}

// enqueueWait enqueues a planned batch on the tenant's lane, blocking
// until it has room — the UDP lane's flow control (its socket buffer
// absorbs the wait). False means the lane closed before the batch was
// admitted; the batch was not applied.
func (s *Server) enqueueWait(t *tenant.Tenant, b *pipeline.Batch) bool {
	depth, ok := t.Lane.Enqueue(b)
	if !ok {
		return false
	}
	t.AddBatch()
	s.tel.AddBatch()
	s.tel.ObserveQueueDepth(depth)
	return true
}
