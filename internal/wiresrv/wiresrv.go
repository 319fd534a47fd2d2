// Package wiresrv is the connection skeleton every internal/proto server
// runs on — the leaf (internal/server) and the coordinator front-end
// (internal/coord) alike (DESIGN.md §12). It owns the listener (accept,
// drain, Kill), and runs two goroutines per TCP connection: a reader that
// decodes frames with a reusable FrameReader and hands each request to the
// connection's Handler, and a writer that drains a bounded reply channel,
// coalesces pending replies into one scratch buffer, and flushes them with
// a single vectored write. Every request is timed into the per-RPC latency
// histogram and recorded as an RPC span linked under the frame's inbound
// trace context.
//
// Steady-state ingest therefore costs zero allocations per frame on both
// directions of the wire, acknowledgements for pipelined batches share
// syscalls instead of paying one each, and replies leave in request order.
package wiresrv

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/telemetry"
)

const (
	// drainGrace is how long connection readers may keep serving requests
	// after Close before their reads are unblocked.
	drainGrace = 200 * time.Millisecond
	// replyQueueDepth bounds the per-connection reply channel. A full
	// channel blocks the reader — backpressure, not loss; the writer is
	// strictly faster than the reader in steady state so depth beyond the
	// pipelining window is never used.
	replyQueueDepth = 256
	// maxFlushReplies caps how many replies one vectored write coalesces,
	// bounding scratch growth and per-flush latency.
	maxFlushReplies = 64
	// inlineReplyLimit is the payload size above which a reply is vectored
	// (header in scratch, payload as its own iovec) instead of copied into
	// scratch. Acks and busy replies are far below it; stats, health and
	// trace dumps are above.
	inlineReplyLimit = 4096
)

// NoRPC is the RPC code of a reply that is neither timed nor traced:
// unsupported request types, and requests outside the instrumented set.
const NoRPC = telemetry.NumRPCs

// replyKind selects the writer-side encoding of one reply.
type replyKind uint8

const (
	// replyFrame carries a pre-encoded payload (query results, stats,
	// errors, merge acks).
	replyFrame replyKind = iota
	// replyAck is an ingest acknowledgement: TOK carrying IngestAck{n},
	// encoded allocation-free into the connection scratch.
	replyAck
	// replyBusy is a backpressure reply: TBusy carrying a RetryAfter hint
	// of n nanoseconds, also encoded allocation-free.
	replyBusy
)

// Reply is one response, built with Frame, Result, Error, Ack or Busy. Ack
// and busy replies carry scalars, not payload bytes — the writer encodes
// them into its scratch, so acknowledging a batch allocates nothing. Once
// returned to the skeleton, a reply's payload belongs to the writer.
type Reply struct {
	kind    replyKind
	t       proto.Type
	n       int64
	payload []byte
}

// Frame replies with a frame of type t carrying payload.
func Frame(t proto.Type, payload []byte) Reply { return Reply{t: t, payload: payload} }

// Result replies with a TResult frame carrying payload.
func Result(payload []byte) Reply { return Frame(proto.TResult, payload) }

// Error replies with a TError frame carrying msg.
func Error(msg string) Reply { return Frame(proto.TError, proto.EncodeError(msg)) }

// Ack acknowledges an ingest batch of n tuples.
func Ack(n int64) Reply { return Reply{kind: replyAck, n: n} }

// Busy refuses an ingest batch with a backpressure reply carrying the
// retry hint.
func Busy(retryAfter time.Duration) Reply { return Reply{kind: replyBusy, n: int64(retryAfter)} }

// Handler serves the requests of one connection, one at a time, on the
// connection's reader goroutine — so it needs no lock for per-connection
// state. Handle answers one request frame; f.Payload aliases the reader's
// buffer and is valid only until Handle returns. rpc names the latency
// histogram and RPC span the request is recorded under (NoRPC for
// neither).
type Handler interface {
	Handle(f proto.Frame) (r Reply, rpc telemetry.RPC)
}

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7171" or ":0".
	Addr string
	// NewHandler returns the handler for one newly accepted connection.
	NewHandler func() Handler
	// Tel receives the per-RPC latency observations.
	Tel *telemetry.Set
	// Tracer receives the RPC spans; nil disables them.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives dropped-connection and write errors
	// (never during shutdown).
	Logf func(format string, args ...any)
}

// Server is a bound listener and the connections it accepted.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // the accept loop and every connection
	draining atomic.Bool
	stopOnce sync.Once
}

// Listen binds cfg.Addr. Connections are accepted only once Serve is
// called, so the caller can finish wiring up what its handlers read.
func Listen(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Serve starts the accept loop in the background.
func (s *Server) Serve() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Draining reports whether Close or Kill has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops accepting, lets every connection finish the requests it has
// in flight for up to drainGrace, then cuts its reads and waits until
// every connection goroutine has exited. Every request a reader had
// already taken is answered before its connection closes.
func (s *Server) Close() { s.stop(true) }

// Kill stops accepting and cuts every connection at once, mid-request,
// then waits for the connection goroutines to exit.
func (s *Server) Kill() { s.stop(false) }

func (s *Server) stop(graceful bool) {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		deadline := time.Now().Add(drainGrace)
		s.mu.Lock()
		for c := range s.conns {
			if graceful {
				c.SetReadDeadline(deadline)
			} else {
				c.Close()
			}
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c, s.cfg.NewHandler())
	}
}

// reply is one queued response: the handler's reply plus the request ID it
// answers.
type reply struct {
	Reply
	id uint64
}

func (s *Server) serveConn(c net.Conn, h Handler) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	replies := make(chan reply, replyQueueDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(c, replies)
	}()
	fr := proto.NewFrameReader(c)
	for {
		f, err := fr.Next()
		if err != nil {
			if err != io.EOF && !s.draining.Load() {
				s.cfg.Logf("wire: dropping %s: %v", c.RemoteAddr(), err)
			}
			break
		}
		start := time.Now()
		r, rpc := h.Handle(f)
		if rpc < NoRPC {
			// One clock read serves both the latency histogram and the RPC
			// span — parented under the inbound trace context when the frame
			// carried one, so an upstream delivery span adopts this node's
			// handling.
			dur := time.Since(start)
			s.cfg.Tel.Observe(rpc, dur)
			s.cfg.Tracer.RecordLinked(obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent}, obs.SpanRPC, int(rpc), 0, start, dur)
		}
		replies <- reply{Reply: r, id: f.ID}
	}
	close(replies)
	<-writerDone
}

// connWriter drains the reply channel, coalescing every reply available
// (up to maxFlushReplies) into one vectored write. Small replies are
// encoded back to back in a reusable scratch buffer; large payloads join
// the iovec uncopied. It exits when the channel closes; on a write error
// it closes the connection to unblock the reader and keeps draining so the
// reader never wedges on a full channel.
func (s *Server) connWriter(nc net.Conn, replies <-chan reply) {
	var (
		scratch []byte
		bufs    net.Buffers
		dead    bool
	)
	flush := func(seg int) {
		if len(scratch) > seg {
			bufs = append(bufs, scratch[seg:])
		}
		if len(bufs) == 0 {
			return
		}
		// WriteTo consumes its receiver, so hand it a copy of the slice
		// header; bufs keeps its backing array for the next round.
		v := bufs
		if _, err := v.WriteTo(nc); err != nil {
			dead = true
			nc.Close()
			if !s.draining.Load() {
				s.cfg.Logf("wire: write to %s: %v", nc.RemoteAddr(), err)
			}
		}
	}
	for {
		r, ok := <-replies
		if !ok {
			return
		}
		if dead {
			continue
		}
		scratch, bufs = scratch[:0], bufs[:0]
		seg := 0 // start of the scratch segment not yet pushed to bufs
		scratch, seg = appendReply(scratch, &bufs, seg, r)
		for n := 1; n < maxFlushReplies; n++ {
			select {
			case r, ok = <-replies:
				if !ok {
					flush(seg)
					return
				}
				scratch, seg = appendReply(scratch, &bufs, seg, r)
			default:
				n = maxFlushReplies
			}
		}
		flush(seg)
	}
}

// appendReply encodes one reply: small ones into scratch, large payloads
// as their own iovec behind their header. Appending to scratch may move
// its backing array; segments already pushed to bufs stay valid — they
// reference the abandoned array, whose bytes are never modified again.
func appendReply(scratch []byte, bufs *net.Buffers, seg int, r reply) ([]byte, int) {
	switch r.kind {
	case replyAck:
		scratch, _ = proto.AppendFrameFunc(scratch, proto.TOK, r.id, func(d []byte) []byte {
			return proto.IngestAck{Tuples: r.n}.AppendTo(d)
		})
	case replyBusy:
		scratch, _ = proto.AppendFrameFunc(scratch, proto.TBusy, r.id, func(d []byte) []byte {
			return proto.Busy{RetryAfter: time.Duration(r.n)}.AppendTo(d)
		})
	default:
		if len(r.payload) >= inlineReplyLimit {
			ext, err := proto.AppendFrameHeader(scratch, r.t, r.id, r.payload)
			if err != nil {
				// A handler produced a payload no frame can carry; tell the
				// client that much instead of wedging the connection.
				msg := proto.EncodeError(fmt.Sprintf("reply exceeds the frame size limit (%d bytes)", len(r.payload)))
				ext, _ = proto.AppendFrame(scratch, proto.Frame{Type: proto.TError, ID: r.id, Payload: msg})
				return ext, seg
			}
			scratch = ext
			*bufs = append(*bufs, scratch[seg:], r.payload)
			return scratch, len(scratch)
		}
		// Payloads under inlineReplyLimit are far below MaxFrame; the
		// error path is unreachable.
		scratch, _ = proto.AppendFrame(scratch, proto.Frame{Type: r.t, ID: r.id, Payload: r.payload})
	}
	return scratch, seg
}
