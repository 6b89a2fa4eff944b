// Package remote runs the untrusted NDP as an actual network service: an
// NDP server owns the untrusted memory and performs the ciphertext-side
// operations of Algorithms 4/5; a client on the trusted side implements
// core.NDP over a TCP connection. This realizes the paper's trust split as
// a real process boundary — everything that crosses the wire is what the
// adversary may see (ciphertext, public geometry, indices, weights) and
// everything that returns is verified by the processor-side scheme.
//
// The wire protocol is a minimal length-prefixed binary format (no
// dependencies) with one query form: opBatch, a whole batch over one table
// region, optionally preceded by an opTraceCtx prefix, answered with
// packed sums — each sum one we-bit little-endian lane, the width the
// ciphertext is stored in. Beside it sit the provisioning writes, opPing
// and the body-free opCaps probe. The probe's word, capBatch|capTrace|
// capPacked, is the protocol's identity: a client checks it once per
// connection, before its first batch, and refuses a server that answers
// anything else with ErrProtocol. The server computes each connection's
// batches into one reused result buffer.
package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// Op codes of the wire protocol. Codes 1 and 2, the retired single-query
// ops, stay reserved and are never reused: a server answers them as any
// unknown op.
const (
	opWriteBlob byte = 3 // provisioning path: load ciphertext into memory
	opWriteECC  byte = 4 // provisioning path: side-band tags
	opPing      byte = 5 // no-op round trip: pool health checks, breaker probes
	opBatch     byte = 6 // whole []BatchRequest in one round trip
	opCaps      byte = 7 // protocol check; MUST stay body-free (see below)
	opTraceCtx  byte = 8 // 16-byte trace context prefix; reply-free (see below)
)

// opName returns an opcode's short series/span name.
func opName(op byte) string {
	switch op {
	case opWriteBlob:
		return "write_blob"
	case opWriteECC:
		return "write_ecc"
	case opPing:
		return "ping"
	case opBatch:
		return "batch"
	case opCaps:
		return "caps"
	case opTraceCtx:
		return "trace_ctx"
	}
	return "unknown"
}

// status codes.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// Capability bits answered by opCaps. The probe request is the op byte
// alone — a server that predates it reads exactly one byte before
// replying statusErr "unknown op", so a body-free probe is the only shape
// that leaves such a stream in sync.
const (
	capBatch uint64 = 1 << 0 // opBatch
	// capTrace: an opTraceCtx prefix (op byte + 16 bytes: big-endian
	// trace ID then parent span ID, no reply) ahead of a request stitches
	// the server's spans under that parent.
	capTrace uint64 = 1 << 1
	// capPacked: opBatch sums come back as we/8-byte little-endian ring
	// lanes (see appendPackedBatchResponse).
	capPacked uint64 = 1 << 2
)

// serverCaps is the protocol's identity: the word this server answers
// opCaps with, and the bits a client requires of every server.
const serverCaps = capBatch | capTrace | capPacked

// traceCtxLen is opTraceCtx's fixed body: 8-byte trace ID + 8-byte
// parent span ID.
const traceCtxLen = 16

// Bits of an opBatch request's flags word.
const (
	// batchFlagVerify asks the server to include per-sub-request tag sums.
	batchFlagVerify uint64 = 1 << 0
	// batchFlagPacked asks for packed sums. Every client sets it and every
	// server answers packed whatever its value.
	batchFlagPacked uint64 = 1 << 1
)

// maxVectorLen bounds request sizes a server will accept (DoS hygiene).
const maxVectorLen = 1 << 20

// maxBatchSubs bounds the sub-request count of one opBatch frame. An
// oversize count is a framing error (connection drop), like an oversized
// query — its payload is not worth draining.
const maxBatchSubs = 1 << 12

// ---- wire helpers -----------------------------------------------------------

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// readUvarints fills dst with consecutive uvarints, decoding in place from
// the reader's buffer (Peek, then Discard what was consumed) instead of one
// ReadByte call per byte. A value that straddles the end of the buffer, or
// is malformed, is read with binary.ReadUvarint, so the bytes consumed and
// the errors returned (io.EOF, io.ErrUnexpectedEOF, overflow) are exactly a
// readUvarint loop's. Row indices decode as int(v), as that loop's callers
// convert them.
func readUvarints[T int | uint64](r *bufio.Reader, dst []T) error {
	for k := 0; k < len(dst); {
		buf, _ := r.Peek(r.Buffered())
		off := 0
		for k < len(dst) {
			v, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				break
			}
			dst[k] = T(v)
			k++
			off += n
		}
		r.Discard(off)
		if k == len(dst) {
			break
		}
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		dst[k] = T(v)
		k++
	}
	return nil
}

func readGeometry(r *bufio.Reader) (core.Geometry, error) {
	var vals [8]uint64
	for i := range vals {
		v, err := readUvarint(r)
		if err != nil {
			return core.Geometry{}, err
		}
		vals[i] = v
	}
	g := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagPlacement(vals[0]),
			Base:      vals[1],
			TagBase:   vals[2],
			NumRows:   int(vals[3]),
			RowBytes:  int(vals[4]),
		},
		Params: core.Params{
			We: uint(vals[5]), M: int(vals[6]), ChecksumSubstrings: int(vals[7]),
		},
	}
	// Validation is the caller's job: a semantic rejection must wait until
	// the whole request has been drained, or the statusErr reply leaves the
	// stream out of sync.
	return g, nil
}

func readBatchSub(r *bufio.Reader) ([]int, []uint64, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	if n > maxVectorLen {
		return nil, nil, fmt.Errorf("remote: sub-request of %d rows exceeds limit", n)
	}
	idx := make([]int, n)
	for k := range idx {
		v, err := readUvarint(r)
		if err != nil {
			return nil, nil, err
		}
		idx[k] = int(v)
	}
	m, err := readUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	if m > maxVectorLen {
		return nil, nil, fmt.Errorf("remote: sub-request of %d weights exceeds limit", m)
	}
	weights := make([]uint64, m)
	for k := range weights {
		weights[k], err = readUvarint(r)
		if err != nil {
			return nil, nil, err
		}
	}
	return idx, weights, nil
}

// readBatchRequest parses an opBatch request body (appendBatchRequest's
// form) and returns its flags word whole; unknown bits are the caller's
// to ignore. Errors are framing errors: the caller must drop the
// connection, not reply. It is the reference the server's in-place
// connFrames.readBatchRequest is fuzzed against.
func readBatchRequest(r *bufio.Reader) (core.Geometry, []core.BatchRequest, uint64, error) {
	geo, err := readGeometry(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	flags, err := readUvarint(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	count, err := readUvarint(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	if count > maxBatchSubs {
		return core.Geometry{}, nil, 0, fmt.Errorf("remote: batch of %d sub-requests exceeds limit", count)
	}
	reqs := make([]core.BatchRequest, count)
	for i := range reqs {
		idx, weights, err := readBatchSub(r)
		if err != nil {
			return core.Geometry{}, nil, 0, err
		}
		reqs[i] = core.BatchRequest{Idx: idx, Weights: weights}
	}
	return geo, reqs, flags, nil
}

// readBatchReply is the one opBatch reply parser (the payload after the
// batch's own statusOK; see appendPackedBatchResponse). It overwrites
// every entry of res, one per sub-request; a sub-result's sums land in
// its m-column row of slab (len(res)×m, sized from the client's own
// geometry) as lanes of rg. Per-sub-request server errors land in
// NDPBatchResult.Err (as *serverError), and so does a sub-result whose
// length is not m; a returned error is a transport/framing failure, and
// res then holds a partial parse.
func readBatchReply(r *bufio.Reader, res []core.NDPBatchResult, slab []uint64, m int, verify bool, rg ring.Ring) error {
	for i := range res {
		res[i] = core.NDPBatchResult{}
		status, err := r.ReadByte()
		if err != nil {
			return err
		}
		switch status {
		case statusErr:
			n, err := readUvarint(r)
			if err != nil {
				return err
			}
			if n > maxVectorLen {
				return fmt.Errorf("remote: oversized error message (%d bytes)", n)
			}
			msg := make([]byte, n)
			if _, err := io.ReadFull(r, msg); err != nil {
				return err
			}
			res[i].Err = &serverError{msg: string(msg)}
		case statusOK:
			dst := slab[i*m : (i+1)*m : (i+1)*m]
			switch err := readLanes(r, rg, dst); err.(type) {
			case nil:
				res[i].Sums = dst
			case *serverError: // a wrong-length sub-result, already drained
				res[i].Err = err
			default:
				return err
			}
			if verify {
				if res[i].Tag, err = readTagResponse(r); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("remote: corrupt batch sub-status byte %#x", status)
		}
	}
	return nil
}

// ---- server -----------------------------------------------------------------

// Server is the untrusted NDP process: it owns a memory.Space and answers
// ciphertext-side operations. It never holds key material.
type Server struct {
	mem *memory.Space
	ndp *core.HonestNDP

	mu sync.Mutex // serializes memory access across connections
	ln net.Listener
	wg sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Registry mirrors (nil-safe no-ops until Instrument runs): accepted
	// connections, operations served by opcode, per-op service-time
	// histograms, and rejected requests. reg additionally receives the
	// server-side trace spans for requests carrying an opTraceCtx prefix.
	reg        *telemetry.Registry
	mConns     *telemetry.Counter
	mOps       [opTraceCtx + 1]*telemetry.Counter
	mOpSeconds [opTraceCtx + 1]*telemetry.Histogram
	mRejects   *telemetry.Counter
}

// Instrument mirrors the server's request counters onto a telemetry
// registry: connections accepted, operations served per opcode, per-op
// service-time histograms (secndp_server_op_<name>_seconds, covering
// request decode through response marshal), and semantic rejections
// (statusErr replies). It also enables server-side tracing: requests
// prefixed with a trace context record their decode/compute spans into
// reg's trace store. Call before Listen; a nil registry is a no-op.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.mConns = reg.Counter("secndp_server_conns_total",
		"Connections accepted by the NDP server.")
	s.mRejects = reg.Counter("secndp_server_rejects_total",
		"Requests the NDP server rejected with a semantic error.")
	for op := opWriteBlob; op <= opTraceCtx; op++ {
		name := opName(op)
		s.mOps[op] = reg.Counter("secndp_server_ops_"+name+"_total",
			"NDP server "+name+" operations served.")
		if op == opTraceCtx {
			continue // a reply-free prefix, not a served operation
		}
		s.mOpSeconds[op] = reg.Histogram("secndp_server_op_"+name+"_seconds",
			"NDP server "+name+" service time, request decode through response marshal.", nil)
	}
}

// NewServer wraps an untrusted memory space.
func NewServer(mem *memory.Space) *Server {
	return &Server{mem: mem, ndp: &core.HonestNDP{Mem: mem}, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, severs live connections, and waits for their
// handlers — so a restart on the same address never deadlocks behind an
// idle client.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed
			}
			// Transient accept failures (EMFILE under fd pressure,
			// ECONNABORTED) must not silently kill the listener: back off
			// and keep accepting until the listener itself is closed.
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		s.mConns.Inc()
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.serve(conn)
		}()
	}
}

// serve handles one connection's request stream until EOF or error. A
// panic while serving (a malformed request reaching a bounds check) drops
// only this connection — the server, which fields requests from untrusted
// clients, must not die with it.
func (s *Server) serve(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			_ = conn.Close()
		}
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	// The connection's reusable request/response frames: parsed vectors and
	// the response marshal buffer grow to the stream's high-water mark once
	// and serve every subsequent request allocation-free.
	fr := &connFrames{}
	for {
		if err := s.serveOne(r, w, fr); err != nil {
			return
		}
		// Flush once nothing more has arrived: the replies to frames a
		// client pipelined leave in one write. The rule's contract is
		// that a client writes each frame whole before it awaits any
		// reply, so a held-back reply never waits on bytes the client
		// has not sent.
		if r.Buffered() > 0 {
			continue
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) serveOne(r *bufio.Reader, w *bufio.Writer, fr *connFrames) error {
	op, err := r.ReadByte()
	if err != nil {
		return err
	}
	if int(op) < len(s.mOps) {
		s.mOps[op].Inc()
	}
	if op == opTraceCtx {
		// Reply-free trace-context prefix: remember the caller's trace and
		// parent span for the next operation on this connection.
		var b [traceCtxLen]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		fr.traceID = binary.BigEndian.Uint64(b[0:8])
		fr.parentSpan = binary.BigEndian.Uint64(b[8:16])
		fr.tracePending = true
		return nil
	}
	// Server-side span for the operation the prefix announced; nil (all
	// methods no-op) without a prefix or without Instrument.
	var span *telemetry.ActiveSpan
	if fr.tracePending {
		fr.tracePending = false
		span = s.reg.StartRemoteSpan(telemetry.TraceID(fr.traceID),
			telemetry.SpanID(fr.parentSpan), "server_"+opName(op))
	}
	start := time.Now()
	defer func() {
		if int(op) < len(s.mOpSeconds) {
			s.mOpSeconds[op].Observe(time.Since(start))
		}
		span.End()
	}()
	fail := func(msg string) error {
		s.mRejects.Inc()
		span.Fail(errors.New(msg), telemetry.ErrClassInvalid)
		if err := w.WriteByte(statusErr); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(len(msg))); err != nil {
			return err
		}
		_, err := w.WriteString(msg)
		return err
	}
	switch op {
	case opWriteBlob:
		addr, err := readUvarint(r)
		if err != nil {
			return err
		}
		n, err := readUvarint(r)
		if err != nil {
			return err
		}
		if n > maxVectorLen {
			// Not worth draining, and a statusErr with the payload unread
			// would have the next op byte parsed out of ciphertext: drop
			// the connection. Client.WriteBlobContext never sends one.
			s.mRejects.Inc()
			return fmt.Errorf("remote: blob of %d bytes exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		if addr > otp.MaxAddr {
			return fail(fmt.Sprintf("address %#x beyond the physical address space", addr))
		}
		if n > otp.MaxAddr-addr+1 {
			return fail(fmt.Sprintf("blob of %d bytes at %#x runs beyond the physical address space", n, addr))
		}
		s.mu.Lock()
		s.mem.Write(addr, buf)
		s.mu.Unlock()
		return w.WriteByte(statusOK)

	case opWriteECC:
		addr, err := readUvarint(r)
		if err != nil {
			return err
		}
		buf := make([]byte, memory.TagBytes)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		if addr > otp.MaxAddr {
			return fail(fmt.Sprintf("address %#x beyond the physical address space", addr))
		}
		s.mu.Lock()
		s.mem.WriteECC(addr, buf)
		s.mu.Unlock()
		return w.WriteByte(statusOK)

	case opBatch:
		// Drain, then validate: framing errors (an oversized vector among
		// them, whose payload is not worth draining) drop the connection;
		// semantic problems with the batch as a whole get one statusErr
		// after the frame is fully drained, since a reply to a half-read
		// request would leave the stream out of sync; per-sub-request
		// problems are answered inside a statusOK reply so they cannot
		// poison their neighbors.
		decode := span.Child("decode")
		geo, reqs, flags, err := fr.readBatchRequest(r)
		if err != nil {
			return err
		}
		decode.End()
		verify := flags&batchFlagVerify != 0
		// The geometry is validated before any memory is touched, rather
		// than relied on to trip bounds checks downstream, and its row
		// footprint capped so a hostile one cannot drive gigabyte per-row
		// allocations.
		if err := geo.Validate(); err != nil {
			return fail(fmt.Sprintf("bad geometry: %v", err))
		}
		if geo.Layout.RowBytes > maxVectorLen {
			return fail(fmt.Sprintf("row size %d exceeds limit", geo.Layout.RowBytes))
		}
		if verify && geo.Layout.Placement == memory.TagNone {
			return fail("geometry has no tag placement")
		}
		// The results live in the connection's batch buffer; the reply is
		// marshalled from them before the next request is read.
		s.mu.Lock()
		sum := span.Child("gather_sum")
		res, err := s.ndp.WeightedTagSumBatchInto(context.Background(), geo, reqs, verify, &fr.batch)
		s.mu.Unlock()
		sum.End()
		if err != nil {
			return fail(fmt.Sprintf("batch failed: %v", err))
		}
		// The geometry validated, so its width is a packable lane.
		fr.out = appendPackedBatchResponse(append(fr.out[:0], statusOK), res, verify, ring.MustNew(geo.Params.We))
		_, err = w.Write(fr.out)
		return err

	case opPing:
		return w.WriteByte(statusOK)

	case opCaps:
		if err := w.WriteByte(statusOK); err != nil {
			return err
		}
		return writeUvarint(w, serverCaps)

	default:
		return fail(fmt.Sprintf("unknown op %d", op))
	}
}

// ---- client -----------------------------------------------------------------

// Client talks to a remote NDP server and implements core.NDP, so a
// core.Table can run queries against a different process. Every call
// carries a per-call deadline: the context's deadline (or, absent one, the
// default set by SetCallTimeout) is applied to the connection, so a hung
// server cannot block the trusted side forever. The wire protocol has no
// element op: WeightedSumElem returns an error wrapping
// errors.ErrUnsupported (the cluster layer serves element queries with
// whole-row fetches instead).
//
// After a transport-level failure (timeout, short read) the wire stream
// may be desynchronized, so the connection is marked unusable and every
// subsequent call fails fast — dial a fresh client, or use a ReliableClient
// which redials automatically. Server-reported errors (statusErr) leave
// the stream in sync and the client usable.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
	fatal   error
	// stop cancels the armed call's cancellation guard (see arm).
	stop func() bool
	// order ranks the client among every Client of the process, for
	// callers that hold several exchanges open at once (see LockOrder).
	order uint64

	// frame is the reusable request marshal buffer: each call gathers its
	// whole request here (one Write into the transport instead of one per
	// varint). Guarded by mu like the rest of the connection state.
	frame []byte

	// The protocol check's outcome, cached once the server answered the
	// opCaps probe: proto is nil for a server that speaks this protocol,
	// ErrProtocol for one that does not.
	probed bool
	proto  error

	// The batch exchange in flight (valid while it holds mu) and the
	// buffers BatchCall.Finish parses its reply into: they grow to the
	// connection's largest batch and serve every later one. Guarded by mu.
	call      BatchCall
	batchRes  []core.NDPBatchResult
	batchSlab []uint64
}

var _ core.NDP = (*Client)(nil)

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a server, honoring the context's deadline and
// cancellation for the dial itself.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), order: clientSeq.Add(1)}, nil
}

// clientSeq numbers the process's clients in dial order.
var clientSeq atomic.Uint64

// LockOrder is the client's rank in the one order every caller starts
// several clients' exchanges in: a started exchange holds its client
// until it finishes, so two callers each starting exchanges on the same
// two clients could otherwise wait on each other forever. Distinct per
// client and fixed for its life.
func (c *Client) LockOrder() uint64 { return c.order }

// SetCallTimeout sets the default per-call deadline applied when a call's
// context carries none. Zero, the initial value, means no deadline.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Close shuts the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Usable reports whether the connection has not been poisoned by a
// transport failure — the health predicate the reconnecting pool uses to
// decide between reuse and redial.
func (c *Client) Usable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fatal == nil
}

// serverError is a statusErr response from the server. The stream stays in
// sync, so the connection remains usable after one.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "remote: server error: " + e.msg }

// isServerError reports whether err is, or wraps, the server's answer
// rather than a transport failure: a *serverError, or ErrProtocol.
func isServerError(err error) bool {
	var se *serverError
	return errors.As(err, &se) || errors.Is(err, ErrProtocol)
}

// arm applies the context's deadline to the connection until disarm
// restores the no-deadline state. A context that can end also guards
// against cancellation mid-call: ctx.Done fires a deadline in the past,
// unblocking any in-flight read. Caller holds c.mu.
func (c *Client) arm(ctx context.Context) error {
	if c.fatal != nil {
		return fmt.Errorf("remote: connection unusable after earlier failure: %w", c.fatal)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	} else if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, func() { c.conn.SetDeadline(time.Unix(1, 0)) })
	}
	return nil
}

// disarm ends what arm began. Caller holds c.mu.
func (c *Client) disarm() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	c.conn.SetDeadline(time.Time{})
}

// finish classifies a call's error: server-reported errors pass through;
// transport errors poison the connection and surface the context's error
// when the failure was deadline- or cancellation-induced. Caller holds c.mu.
func (c *Client) finish(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if isServerError(err) {
		return err
	}
	c.fatal = err
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("%w (transport: %v)", ctxErr, err)
	}
	// The socket deadline mirrors the context deadline, so it can fire a
	// beat before ctx.Err() flips non-nil; a timeout with a context
	// deadline set is still a deadline failure.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if _, ok := ctx.Deadline(); ok {
			return fmt.Errorf("%w (transport: %v)", context.DeadlineExceeded, err)
		}
	}
	return err
}

// readStatus consumes a response's status byte; on statusErr it also
// drains the error payload and returns it as a *serverError. A status byte
// outside {statusOK, statusErr} means the stream is corrupt or desynced —
// a transport error, so the caller's connection gets poisoned.
func readStatus(r *bufio.Reader) error {
	status, err := r.ReadByte()
	if err != nil {
		return err
	}
	switch status {
	case statusOK:
		return nil
	case statusErr:
	default:
		return fmt.Errorf("remote: corrupt status byte %#x", status)
	}
	n, err := readUvarint(r)
	if err != nil {
		return err
	}
	if n > maxVectorLen {
		return fmt.Errorf("remote: oversized error message (%d bytes)", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return err
	}
	return &serverError{msg: string(msg)}
}

// readLanes parses one sub-result's sums into dst, whose length is the
// geometry's column count M: the client sizes its buffers from the
// geometry it sent, never from a count the server sent. The uvarint count
// is followed by count we/8-byte little-endian lanes of rg, decoded with
// ring.UnpackElemsInto straight from the reader's buffer, one
// buffer-sized chunk at a time. A count other than len(dst) is drained
// unread — nothing is allocated and the stream stays in sync — and
// reported as a *serverError; an oversized count, or sums for a width
// that is no lane (which a server rejects before answering), is a
// framing error, and a reply that ends inside its lanes is
// io.ErrUnexpectedEOF.
func readLanes(r *bufio.Reader, rg ring.Ring, dst []uint64) error {
	n, err := readUvarint(r)
	if err != nil {
		return err
	}
	if n > maxVectorLen {
		return fmt.Errorf("remote: oversized response (%d values)", n)
	}
	eb := rg.Bytes()
	if eb == 0 || uint(eb)*8 != rg.Width() {
		return fmt.Errorf("remote: sums answered for a %d-bit geometry", rg.Width())
	}
	if n != uint64(len(dst)) {
		if _, err := r.Discard(int(n) * eb); err != nil {
			return unexpectedEOF(err)
		}
		return &serverError{msg: fmt.Sprintf("answered %d sums for %d columns", n, len(dst))}
	}
	for len(dst) > 0 {
		// Peeking one lane refills the buffer once it runs dry.
		if _, err := r.Peek(eb); err != nil {
			return unexpectedEOF(err)
		}
		k := min(len(dst), r.Buffered()/eb)
		b, _ := r.Peek(k * eb)
		rg.UnpackElemsInto(dst[:k], b)
		r.Discard(k * eb)
		dst = dst[k:]
	}
	return nil
}

// unexpectedEOF maps io.EOF, which a read inside a reply can only mean
// as a truncation, to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readTagResponse parses a tag sum: one 16-byte field element, decoded in
// place from the reader's buffer. A short read fails as io.ReadFull
// would: io.EOF with no bytes, io.ErrUnexpectedEOF with some.
func readTagResponse(r *bufio.Reader) (field.Elem, error) {
	const n = 16
	b, err := r.Peek(n)
	if err != nil {
		r.Discard(len(b))
		if len(b) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return field.Zero, err
	}
	e := field.FromBytes(b)
	r.Discard(n)
	return e, nil
}

func (c *Client) roundTrip(send func() error) error {
	if err := send(); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return readStatus(c.r)
}

// ErrProtocol answers every batch on a connection whose server does not
// speak this package's protocol: it answered the opCaps probe with
// statusErr, or with a word lacking one of capBatch, capTrace and
// capPacked. Nothing but the probe was sent, so it neither poisons the
// connection nor draws a retry. It wraps errors.ErrUnsupported.
var ErrProtocol = fmt.Errorf("remote: server does not speak the packed batch protocol: %w", errors.ErrUnsupported)

// checkProtocolLocked runs the opCaps probe once per connection and
// caches its outcome: nil, or ErrProtocol for every later call too. A
// transport or framing failure may leave part of the probe's reply on
// the stream, so it poisons the connection, as finish does, and is
// returned: the caller must not write its operation. Caller holds c.mu
// with the connection armed.
func (c *Client) checkProtocolLocked() error {
	if !c.probed {
		caps, err := c.capsLocked()
		if err != nil && !isServerError(err) {
			c.fatal = err
			return err
		}
		if err != nil || caps&serverCaps != serverCaps {
			c.proto = ErrProtocol
		}
		c.probed = true
	}
	return c.proto
}

// appendTrace appends ctx's opTraceCtx prefix to f (op byte +
// big-endian trace ID + parent span ID) when ctx carries an active trace
// span; an untraced call appends nothing.
func appendTrace(f []byte, ctx context.Context) []byte {
	span := telemetry.SpanFromContext(ctx)
	if span == nil {
		return f
	}
	f = append(f, opTraceCtx)
	f = binary.BigEndian.AppendUint64(f, uint64(span.Trace()))
	return binary.BigEndian.AppendUint64(f, uint64(span.ID()))
}

// errNoElemOp is WeightedSumElem's answer: the wire has no element op, so
// element-granular queries are served by the cluster's whole-row fetches
// or the TEE mirror instead.
var errNoElemOp = fmt.Errorf("remote: no element op on the wire: %w", errors.ErrUnsupported)

// WeightedSumElem implements core.NDP: the wire protocol has no element
// op, so it returns an error wrapping errors.ErrUnsupported.
func (c *Client) WeightedSumElem(ctx context.Context, _ core.Geometry, _, _ []int, _ []uint64) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return 0, errNoElemOp
}

// WeightedTagSumBatch implements core.NDP over the wire: the whole
// batch's ciphertext sums (and, when verify is set, tag sums) in one
// round trip, a one-frame exchange. Per-sub-request server errors land
// in the corresponding NDPBatchResult.Err; a non-nil returned error is
// batch-level (server rejection, transport failure, or ErrProtocol) and
// decided nothing. The reply is decoded straight into fresh storage, as
// core.NDP requires: every sub-result's sums share one new count×M slab.
func (c *Client) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	frame := [1]BatchFrame{{Ctx: ctx, Geo: geo, Reqs: reqs, Verify: verify}}
	call, err := c.StartBatches(ctx, frame[:])
	if err != nil {
		return nil, err
	}
	call.fresh = true
	var res []core.NDPBatchResult
	var rerr error
	if err := call.Finish(func(_ int, r []core.NDPBatchResult, ferr error) { res, rerr = r, ferr }); err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	return res, nil
}

// BatchFrame is one opBatch request of a pipelined exchange: a whole
// batch over one geometry. Ctx supplies the frame's trace span (a traced
// frame carries its own trace-context prefix); the exchange's context,
// not the frame's, bounds the call.
type BatchFrame struct {
	Ctx    context.Context
	Geo    core.Geometry
	Reqs   []core.BatchRequest
	Verify bool
}

// BatchCall is one pipelined exchange in flight: one or more opBatch
// frames written in one flush on one connection, their replies read
// back in order. Every frame carries its own geometry, so frames of
// different tables share an exchange with no change to the frame.
// StartBatches — a Client's own, or ReliableClient's on a pooled
// connection — arms the connection and writes and flushes every frame;
// Finish reads each reply into buffers the connection owns, hands it on,
// and releases the connection. Every started call must be finished or
// aborted, once. The connection is held from start to finish, so a caller
// keeping several bare Clients' exchanges open at once starts them in
// LockOrder.
type BatchCall struct {
	c      *Client
	ctx    context.Context
	frames []callFrame
	// fresh decodes each reply into new storage instead of the
	// connection's buffers (WeightedTagSumBatch's contract).
	fresh bool
	// The ReliableClient that lent c, settled on release, and the
	// attempt context's cancel; nil for a call on a bare Client.
	rc     *ReliableClient
	cancel context.CancelFunc
}

// callFrame is what reading one frame's reply needs.
type callFrame struct {
	n, m   int // sub-requests, columns
	verify bool
	rg     ring.Ring
}

// errAbandoned poisons a connection whose started exchange was aborted:
// its replies, or some of them, are still on the stream.
var errAbandoned = errors.New("remote: batch exchange abandoned before its reply was read")

// StartBatches begins a pipelined exchange: it locks and arms the
// connection (the context's deadline and cancellation cover the call
// until it finishes), checks the server's protocol on the connection's
// first exchange, and writes every opBatch frame, trace prefixes
// included, then flushes once. The client stays locked until the call's
// Finish or Abort. On error nothing is held and the connection is
// poisoned unless the error is the server's (ErrProtocol).
func (c *Client) StartBatches(ctx context.Context, frames []BatchFrame) (*BatchCall, error) {
	for i := range frames {
		if n := len(frames[i].Reqs); n > maxBatchSubs {
			return nil, fmt.Errorf("remote: batch of %d sub-requests exceeds limit", n)
		}
	}
	c.mu.Lock()
	if err := c.arm(ctx); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if err := c.sendBatchesLocked(frames); err != nil {
		err = c.finish(ctx, err)
		c.disarm()
		c.mu.Unlock()
		return nil, err
	}
	c.call.c, c.call.ctx = c, ctx
	return &c.call, nil
}

// sendBatchesLocked writes every frame into one buffer, records how to
// read each reply in c.call.frames, and flushes. Caller holds c.mu with
// the connection armed.
func (c *Client) sendBatchesLocked(frames []BatchFrame) error {
	// A server that predates this protocol would read the frame's payload
	// as further ops, so the cached protocol check gates the send.
	if err := c.checkProtocolLocked(); err != nil {
		return err
	}
	f, cf := c.frame[:0], c.call.frames[:0]
	for i := range frames {
		fr := &frames[i]
		flags := batchFlagPacked
		if fr.Verify {
			flags |= batchFlagVerify
		}
		f = appendBatchRequest(append(appendTrace(f, fr.Ctx), opBatch), fr.Geo, fr.Reqs, flags)
		// A width out of ring range leaves rg zero, which readLanes
		// refuses; the server rejects such a geometry whole anyway.
		rg, _ := ring.New(fr.Geo.Params.We)
		cf = append(cf, callFrame{n: len(fr.Reqs), m: fr.Geo.Params.M, verify: fr.Verify, rg: rg})
	}
	c.frame, c.call.frames = f, cf
	if _, err := c.w.Write(f); err != nil {
		return err
	}
	return c.w.Flush()
}

// Finish reads the exchange's replies in frame order. Each reply — its
// status, then every sub-result — is parsed whole into the connection's
// buffers and handed to each with its frame index; a frame the server
// rejected whole (statusErr, the stream still in sync) is handed over
// with that error and no results. each sees exactly one result per
// sub-request, valid until it returns: it must copy or fold what it
// keeps, and it runs with the connection held, so it must not use the
// Client. A reply that fails to parse ends the exchange: that frame and
// every later one reach no each, and the error is returned, as
// WeightedTagSumBatch reports it. If each panics after the last reply was
// read, the connection is still released in sync; earlier, it is
// poisoned, since replies remain on the stream. The buffers grow to the
// connection's largest frame and serve every later one.
func (b *BatchCall) Finish(each func(i int, res []core.NDPBatchResult, err error)) error {
	c := b.c
	read := 0
	var werr error
	defer func() {
		if werr == nil && read < len(b.frames) {
			werr = errAbandoned
		}
		b.release(werr)
	}()
	for i := range b.frames {
		f := &b.frames[i]
		res, slab := b.buffers(f.n, f.m)
		err := readStatus(c.r)
		if err == nil {
			err = readBatchReply(c.r, res, slab, f.m, f.verify, f.rg)
		} else if isServerError(err) {
			read++
			each(i, nil, err)
			continue
		}
		if err != nil {
			werr = c.finish(b.ctx, err)
			return werr
		}
		read++
		each(i, res, nil)
	}
	return nil
}

// buffers returns the result vector and the n×m sums slab one reply is
// parsed into.
func (b *BatchCall) buffers(n, m int) ([]core.NDPBatchResult, []uint64) {
	if b.fresh {
		return make([]core.NDPBatchResult, n), make([]uint64, n*m)
	}
	c := b.c
	if cap(c.batchRes) < n {
		c.batchRes = make([]core.NDPBatchResult, n)
	}
	c.batchRes = c.batchRes[:n]
	c.batchSlab = growU64s(c.batchSlab, n*m)
	return c.batchRes, c.batchSlab
}

// Abort abandons a started exchange without reading its replies: the
// connection is poisoned and closed, and the call released.
func (b *BatchCall) Abort() { b.release(errAbandoned) }

// release ends the exchange with its wire outcome err: it disarms and
// unlocks the connection and, for a pooled one, settles it with the
// ReliableClient. An abandoned exchange poisons and closes the connection.
func (b *BatchCall) release(err error) {
	c, rc, cancel := b.c, b.rc, b.cancel
	if err == errAbandoned {
		if c.fatal == nil {
			c.fatal = err
		}
		c.conn.Close()
	}
	c.disarm()
	*b = BatchCall{frames: b.frames[:0]}
	c.mu.Unlock()
	if rc != nil {
		rc.settle(c, err)
		cancel()
	}
}

// capsLocked is one opCaps exchange: the server's capability word.
func (c *Client) capsLocked() (uint64, error) {
	if err := c.roundTrip(func() error { return c.w.WriteByte(opCaps) }); err != nil {
		return 0, err
	}
	return readUvarint(c.r)
}

// PingContext performs a no-op round trip — the health check used by the
// reconnecting pool's dial path and the circuit breaker's half-open probe.
func (c *Client) PingContext(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.arm(ctx); err != nil {
		return err
	}
	defer c.disarm()
	return c.finish(ctx, c.roundTrip(func() error {
		return c.w.WriteByte(opPing)
	}))
}

// WriteBlobContext provisions ciphertext bytes into the server's memory
// (the initialization transfer of Figure 4's T0 step). A blob longer than
// the server's maxVectorLen frame limit goes as successive writes at
// increasing addresses; one that fits is exactly one exchange.
func (c *Client) WriteBlobContext(ctx context.Context, addr uint64, data []byte) error {
	for len(data) > maxVectorLen {
		if err := c.writeBlob(ctx, addr, data[:maxVectorLen]); err != nil {
			return err
		}
		addr, data = addr+maxVectorLen, data[maxVectorLen:]
	}
	return c.writeBlob(ctx, addr, data)
}

// writeBlob is one opWriteBlob exchange; len(data) must not exceed
// maxVectorLen.
func (c *Client) writeBlob(ctx context.Context, addr uint64, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.arm(ctx); err != nil {
		return err
	}
	defer c.disarm()
	// Gathered header, then the payload straight from the caller's buffer —
	// bufio passes large writes through without copying.
	return c.finish(ctx, c.roundTrip(func() error {
		c.frame = binary.AppendUvarint(binary.AppendUvarint(append(c.frame[:0], opWriteBlob), addr), uint64(len(data)))
		if _, err := c.w.Write(c.frame); err != nil {
			return err
		}
		_, err := c.w.Write(data)
		return err
	}))
}

// WriteECCContext provisions a side-band tag (Ver-ECC placement).
func (c *Client) WriteECCContext(ctx context.Context, dataAddr uint64, tag []byte) error {
	if len(tag) != memory.TagBytes {
		return fmt.Errorf("remote: tag must be %d bytes", memory.TagBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.arm(ctx); err != nil {
		return err
	}
	defer c.disarm()
	return c.finish(ctx, c.roundTrip(func() error {
		if err := c.w.WriteByte(opWriteECC); err != nil {
			return err
		}
		if err := writeUvarint(c.w, dataAddr); err != nil {
			return err
		}
		_, err := c.w.Write(tag)
		return err
	}))
}

// Transport is the client-side contract the trusted engine needs from an
// NDP connection: the compute operations of core.NDP plus the provisioning
// writes. It is satisfied by *Client (one connection, fails
// fast once poisoned) and *ReliableClient (reconnecting pool + retry +
// circuit breaker).
type Transport interface {
	core.NDP
	WriteBlobContext(ctx context.Context, addr uint64, data []byte) error
	WriteECCContext(ctx context.Context, dataAddr uint64, tag []byte) error
	Close() error
}

var _ Transport = (*Client)(nil)
