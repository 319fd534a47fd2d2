package wiresrv

import (
	"bytes"
	"net"
	"testing"
	"time"

	"implicate/internal/proto"
	"implicate/internal/telemetry"
)

// handlerFunc adapts a function to Handler.
type handlerFunc func(f proto.Frame) (Reply, telemetry.RPC)

func (h handlerFunc) Handle(f proto.Frame) (Reply, telemetry.RPC) { return h(f) }

func start(t *testing.T, h Handler, tel *telemetry.Set) *Server {
	t.Helper()
	s, err := Listen(Config{Addr: "127.0.0.1:0", NewHandler: func() Handler { return h }, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	s.Serve()
	t.Cleanup(s.Kill)
	return s
}

func dial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc
}

func send(t *testing.T, nc net.Conn, frames ...proto.Frame) {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		var err error
		if buf, err = proto.AppendFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRepliesKeepRequestOrder sends a burst of requests in one
// write and checks every reply comes back in request order with the right
// encoding — acks and busy replies encoded in the writer's scratch, small
// payloads inlined, large ones vectored — and that only instrumented
// requests are timed.
func TestPipelinedRepliesKeepRequestOrder(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, inlineReplyLimit+1)
	h := handlerFunc(func(f proto.Frame) (Reply, telemetry.RPC) {
		switch f.ID % 4 {
		case 0:
			return Ack(int64(f.ID)), telemetry.RPCIngest
		case 1:
			return Busy(time.Duration(f.ID) * time.Millisecond), telemetry.RPCIngest
		case 2:
			return Result(big), telemetry.RPCQuery
		}
		return Error("nope"), NoRPC
	})
	var tel telemetry.Set
	s := start(t, h, &tel)
	nc := dial(t, s)
	const n = 200
	reqs := make([]proto.Frame, n)
	for i := range reqs {
		reqs[i] = proto.Frame{Type: proto.TQuery, ID: uint64(i + 1)}
	}
	send(t, nc, reqs...)
	fr := proto.NewFrameReader(nc)
	for i := 1; i <= n; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.ID != uint64(i) {
			t.Fatalf("reply %d carries request ID %d: replies reordered", i, f.ID)
		}
		switch i % 4 {
		case 0:
			ack, err := proto.DecodeIngestAck(f.Payload)
			if f.Type != proto.TOK || err != nil || ack.Tuples != int64(i) {
				t.Fatalf("reply %d: %v %+v %v, want ack of %d", i, f.Type, ack, err, i)
			}
		case 1:
			b, err := proto.DecodeBusy(f.Payload)
			if f.Type != proto.TBusy || err != nil || b.RetryAfter != time.Duration(i)*time.Millisecond {
				t.Fatalf("reply %d: %v %+v %v, want busy", i, f.Type, b, err)
			}
		case 2:
			if f.Type != proto.TResult || !bytes.Equal(f.Payload, big) {
				t.Fatalf("reply %d: %v with %d payload bytes, want the large result", i, f.Type, len(f.Payload))
			}
		case 3:
			if msg, err := proto.DecodeError(f.Payload); f.Type != proto.TError || err != nil || msg != "nope" {
				t.Fatalf("reply %d: %v %q %v, want the error", i, f.Type, msg, err)
			}
		}
	}
	sn := tel.Snapshot()
	if got := sn.Latency[telemetry.RPCIngest].Count(); got != n/2 {
		t.Errorf("ingest latency observations %d, want %d", got, n/2)
	}
	if got := sn.Latency[telemetry.RPCQuery].Count(); got != n/4 {
		t.Errorf("query latency observations %d, want %d (NoRPC replies must not be timed)", got, n/4)
	}
}

// blockingHandler parks request 1 until release closes, signalling entered
// first; every other request is answered at once.
func blockingHandler(entered, release chan struct{}) Handler {
	return handlerFunc(func(f proto.Frame) (Reply, telemetry.RPC) {
		if f.ID == 1 {
			close(entered)
			<-release
		}
		return Ack(int64(f.ID)), telemetry.RPCIngest
	})
}

// TestCloseAnswersInFlightWithinGrace: Close waits for a request already
// being handled — and for the one pipelined behind it — to be answered
// before the connection goes, then returns.
func TestCloseAnswersInFlightWithinGrace(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := start(t, blockingHandler(entered, release), &telemetry.Set{})
	nc := dial(t, s)
	send(t, nc, proto.Frame{Type: proto.TIngest, ID: 1}, proto.Frame{Type: proto.TIngest, ID: 2})
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	time.Sleep(drainGrace / 4)
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	default:
	}
	if !s.Draining() {
		t.Fatal("server not draining after Close")
	}
	close(release)
	fr := proto.NewFrameReader(nc)
	for id := uint64(1); id <= 2; id++ {
		f, err := fr.Next()
		if err != nil || f.ID != id || f.Type != proto.TOK {
			t.Fatalf("in-flight request %d: %+v %v", id, f, err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the grace window")
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("connection still open after Close")
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

// TestKillCutsConnections: Kill closes every connection at once, without
// answering the request in flight.
func TestKillCutsConnections(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := start(t, blockingHandler(entered, release), &telemetry.Set{})
	nc := dial(t, s)
	send(t, nc, proto.Frame{Type: proto.TIngest, ID: 1})
	<-entered
	killed := make(chan struct{})
	go func() {
		s.Kill()
		close(killed)
	}()
	// The handler is still parked, so nothing can have been answered: the
	// read must fail because Kill cut the connection.
	if _, err := proto.NewFrameReader(nc).Next(); err == nil {
		t.Fatal("killed connection delivered a reply")
	}
	close(release)
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not return")
	}
}
