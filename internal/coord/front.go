// The coordinator's wire front-end: the leaf's protocol served on the same
// connection skeleton a leaf runs on (internal/wiresrv), so producers and
// queriers talk to the fleet exactly as they would to one impserved — the
// pooled client, impbench and a parent coordinator all work unchanged, and
// the front-end pipelines requests, coalesces acks into vectored writes
// and decodes batches exactly like a leaf. Ingest frames route into the
// coordinator's partition table and are acknowledged once buffered
// (durability at this tier is the journal plus the leaves' checkpoints);
// Query and Snapshot answer from the merged fleet state; Cluster reports
// membership.
package coord

import (
	"fmt"

	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
	"implicate/internal/wiresrv"
)

// Frontend serves the coordinator over the wire protocol. Create with
// Serve.
type Frontend struct {
	co   *Coordinator
	wire *wiresrv.Server
}

// Serve starts a front-end listener for co on addr.
func Serve(co *Coordinator, addr string) (*Frontend, error) {
	fe := &Frontend{co: co}
	w, err := wiresrv.Listen(wiresrv.Config{
		Addr: addr,
		// The front-end keeps no per-connection state: every connection
		// shares the one handler.
		NewHandler: func() wiresrv.Handler { return fe },
		Tel:        &co.tel,
		Tracer:     co.tracer,
		Logf:       co.logf,
	})
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	fe.wire = w
	w.Serve()
	return fe, nil
}

// Addr returns the bound listen address (useful with ":0").
func (fe *Frontend) Addr() string { return fe.wire.Addr() }

// Handle routes one request frame. TCluster and unknown types are not
// instrumented RPCs.
func (fe *Frontend) Handle(f proto.Frame) (wiresrv.Reply, telemetry.RPC) {
	co := fe.co
	switch f.Type {
	case proto.TIngest:
		return fe.handleIngest(f), telemetry.RPCIngest
	case proto.TQuery:
		req, err := proto.DecodeQueryReq(f.Payload)
		if err != nil {
			return wiresrv.Error(err.Error()), telemetry.RPCQuery
		}
		res, err := co.Query(int(req.Stmt))
		if err != nil {
			return wiresrv.Error(err.Error()), telemetry.RPCQuery
		}
		return wiresrv.Result(res.Encode()), telemetry.RPCQuery
	case proto.TSnapshot:
		req, err := proto.DecodeSnapshotReq(f.Payload)
		if err != nil {
			return wiresrv.Error(err.Error()), telemetry.RPCSnapshot
		}
		res, err := co.Snapshot(int(req.Stmt))
		if err != nil {
			return wiresrv.Error(err.Error()), telemetry.RPCSnapshot
		}
		return wiresrv.Result(res.Encode()), telemetry.RPCSnapshot
	case proto.TCluster:
		return wiresrv.Result(co.Status().Encode()), wiresrv.NoRPC
	case proto.TBoot:
		// The coordinator journals in memory, so its restart loses routing
		// state the same way a leaf restart loses uncheckpointed tuples —
		// stateful feeders fence against it just like against a leaf.
		return wiresrv.Result(proto.Boot{Nonce: co.boot}.Encode()), telemetry.RPCBoot
	case proto.THealth:
		// The coordinator holds no estimators of its own, and Ping rides
		// this type — an empty report keeps liveness probes cheap instead of
		// fanning out to N leaves per probe. The rolled-up fleet health lives
		// on the admin endpoint and in FleetHealth.
		return wiresrv.Result(obs.EncodeHealth(nil)), telemetry.RPCHealth
	case proto.TStats:
		return wiresrv.Result(co.tel.Snapshot().Encode()), telemetry.RPCStats
	case proto.TTrace:
		// With tracing off this answers the empty single-node dump any
		// client decodes; armed, it assembles the cross-node fleet trace
		// (coordinator spans + every reachable leaf's ring, causally ordered
		// and node-labeled).
		if co.tracer == nil {
			return wiresrv.Result(obs.EncodeSpans(nil)), telemetry.RPCTrace
		}
		return wiresrv.Result(obs.EncodeFleetTrace(co.FleetTrace())), telemetry.RPCTrace
	case proto.TUDPAck:
		// No UDP lane at this tier; the zero watermark is the protocol's
		// "lane disabled" answer.
		if _, err := proto.DecodeUDPAckReq(f.Payload); err != nil {
			return wiresrv.Error(err.Error()), telemetry.RPCUDPAck
		}
		return wiresrv.Result(proto.UDPAck{}.Encode()), telemetry.RPCUDPAck
	}
	return wiresrv.Error(fmt.Sprintf("unsupported request type %s", f.Type)), wiresrv.NoRPC
}

// handleIngest decodes one batch against the coordinator's schema and
// routes it. No arena: the router buffers retain the tuples until they are
// journaled, so every batch owns its decoded memory. The tuple bound is
// the payload length — every tuple takes at least one byte — so the
// front-end accepts any batch a frame can carry.
func (fe *Frontend) handleIngest(f proto.Frame) wiresrv.Reply {
	tuples, err := stream.DecodeBatch(f.Payload, fe.co.cfg.Schema, nil, len(f.Payload))
	if err != nil {
		return wiresrv.Error(err.Error())
	}
	if err := fe.co.Ingest(tuples); err != nil {
		return wiresrv.Error(err.Error())
	}
	return wiresrv.Ack(int64(len(tuples)))
}

// Close stops accepting, lets connection readers finish briefly, then cuts
// them. The coordinator itself is left running — callers own its shutdown.
func (fe *Frontend) Close() error {
	fe.wire.Close()
	return nil
}
