package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/ring"
)

// Packed batch replies carry each sum as one we-bit ring lane. These tests
// hold the client's protocol check to refusing every server that does not
// speak the packed protocol, the client's chunked lane decode to the read
// buffer's edges, and the server to one reply form at one known size.

// plainBatch is the plaintext answer to a batch over 32-bit rows.
func plainBatch(rows [][]uint64, reqs []core.BatchRequest, m int) [][]uint64 {
	out := make([][]uint64, len(reqs))
	for i, req := range reqs {
		out[i] = make([]uint64, m)
		for k, r := range req.Idx {
			for j := range out[i] {
				out[i][j] = (out[i][j] + req.Weights[k]*rows[r][j]) & 0xFFFFFFFF
			}
		}
	}
	return out
}

func randBatch(rng *rand.Rand, subs, perSub, rows int) []core.BatchRequest {
	reqs := make([]core.BatchRequest, subs)
	for i := range reqs {
		reqs[i] = core.BatchRequest{Idx: make([]int, perSub), Weights: make([]uint64, perSub)}
		for k := range reqs[i].Idx {
			reqs[i].Idx[k] = rng.Intn(rows)
			reqs[i].Weights[k] = 1 + rng.Uint64()%8
		}
	}
	return reqs
}

// lastBatchFlags parses the flags word out of the client's last request
// frame, which must be an untraced opBatch.
func lastBatchFlags(t *testing.T, c *Client) uint64 {
	t.Helper()
	if len(c.frame) == 0 || c.frame[0] != opBatch {
		t.Fatalf("last frame is not an opBatch request")
	}
	_, _, flags, err := readBatchRequest(bufio.NewReader(bytes.NewReader(c.frame[1:])))
	if err != nil {
		t.Fatal(err)
	}
	return flags
}

// TestCapsProbeWireErrorPoisons: a server that answers opCaps with an
// overlong varint leaves part of that reply on the stream. The batch
// that triggered the probe must fail with the probe's error without
// writing its own frame, and the connection must be poisoned.
func TestCapsProbeWireErrorPoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer conn.Close()
		op := make([]byte, 1)
		if _, err := io.ReadFull(conn, op); err != nil {
			received <- nil
			return
		}
		// statusOK, then twelve continuation bytes: binary.ReadUvarint
		// gives up on overflow after ten, leaving two on the stream.
		conn.Write(append([]byte{statusOK}, bytes.Repeat([]byte{0xFF}, 12)...))
		rest, _ := io.ReadAll(conn) // everything else the client sends
		received <- append(op, rest...)
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 8, 32)
	reqs := []core.BatchRequest{{Idx: []int{1}, Weights: []uint64{1}}}
	_, err = client.WeightedTagSumBatch(context.Background(), geo, reqs, true)
	if err == nil {
		t.Fatal("batch after a corrupt probe reply succeeded")
	}
	var se *serverError
	if errors.As(err, &se) || strings.Contains(err.Error(), "corrupt status") {
		t.Fatalf("probe failure surfaced as %v, want the probe's own framing error", err)
	}
	if client.Usable() {
		t.Fatal("connection still usable after the probe failed on the wire")
	}
	if _, err := client.WeightedTagSumBatch(context.Background(), geo, reqs, true); err == nil ||
		!strings.Contains(err.Error(), "unusable") {
		t.Fatalf("second call on the poisoned connection: %v, want a fail-fast", err)
	}
	client.Close()
	if got := <-received; !bytes.Equal(got, []byte{opCaps}) {
		t.Fatalf("server received % x after the probe, want the probe byte alone", got)
	}
}

// TestPackedReplyLargerThanReadBuffer: a verified batch of M = 2048
// 32-bit columns puts 8 KiB of lanes in each sub-result, twice bufio's
// 4096-byte read buffer, so the client decodes it in buffer-sized chunks.
func TestPackedReplyLargerThanReadBuffer(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 8, 2048
	geo := testGeometry(memory.TagSep, n, m)
	rng := rand.New(rand.NewSource(301))
	rows := randRows(rng, n, m, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	reqs := randBatch(rng, 3, 4, n)
	out := tab.QueryBatchCtx(context.Background(), client, reqs, core.QueryOptions{Verify: true})
	if err := core.FirstError(out); err != nil {
		t.Fatal(err)
	}
	if got := lastBatchFlags(t, client); got != batchFlagVerify|batchFlagPacked {
		t.Fatalf("request flags %#x, want verify|packed", got)
	}
	want := plainBatch(rows, reqs, m)
	for i := range reqs {
		for j := range want[i] {
			if out[i].Res[j] != want[i][j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, out[i].Res[j], want[i][j])
			}
		}
	}
}

// TestPackedReplyTruncated: a packed reply that ends inside its lanes is
// io.ErrUnexpectedEOF, whether parsed directly or read by a client, and
// the client's connection is poisoned.
func TestPackedReplyTruncated(t *testing.T) {
	rg := ring.MustNew(32)
	const m = 64
	sums := make([]uint64, m)
	for j := range sums {
		sums[j] = uint64(j) * 0x01010101
	}
	full := appendPackedBatchResponse(nil, []core.NDPBatchResult{{Sums: sums}}, true, rg)
	for _, cut := range []int{3, 4, 100, 2 + m*4 - 1} {
		_, err := readPackedBatchResponse(bufio.NewReader(iotest.HalfReader(bytes.NewReader(full[:cut]))), 1, m, true, rg)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("reply cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}

	// A server that advertises capPacked, then sends half of a packed
	// sub-result and hangs up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	flagsSeen := make(chan uint64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			flagsSeen <- 0
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if op, err := r.ReadByte(); err != nil || op != opCaps {
			flagsSeen <- 0
			return
		}
		conn.Write(binary.AppendUvarint([]byte{statusOK}, serverCaps))
		if op, err := r.ReadByte(); err != nil || op != opBatch {
			flagsSeen <- 0
			return
		}
		_, _, flags, err := readBatchRequest(r)
		if err != nil {
			flagsSeen <- 0
			return
		}
		flagsSeen <- flags
		conn.Write(append([]byte{statusOK}, full[:2+m*2]...))
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	geo := testGeometry(memory.TagSep, 8, m)
	_, err = client.WeightedTagSumBatch(context.Background(), geo,
		[]core.BatchRequest{{Idx: []int{1}, Weights: []uint64{1}}}, true)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated packed reply: %v, want io.ErrUnexpectedEOF", err)
	}
	if client.Usable() {
		t.Fatal("connection still usable after a truncated reply")
	}
	if got := <-flagsSeen; got != batchFlagVerify|batchFlagPacked {
		t.Fatalf("request flags %#x, want verify|packed", got)
	}
}

// TestProtocolCheckRefusesOldServers: a scripted server answers the
// opCaps probe as a server that predates the packed protocol does —
// statusErr "unknown op", or a word lacking one of the three bits. The
// first batch fails with ErrProtocol, which wraps errors.ErrUnsupported,
// without writing a byte after the probe; the connection stays usable,
// and a second batch fails the same way without a second probe.
func TestProtocolCheckRefusesOldServers(t *testing.T) {
	for name, answer := range map[string][]byte{
		"statusErr":  append([]byte{statusErr, 10}, "unknown op"...),
		"no packed":  binary.AppendUvarint([]byte{statusOK}, capBatch|capTrace),
		"no trace":   binary.AppendUvarint([]byte{statusOK}, capBatch|capPacked),
		"batch only": binary.AppendUvarint([]byte{statusOK}, capBatch),
		"no batch":   binary.AppendUvarint([]byte{statusOK}, capTrace|capPacked),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			received := make(chan []byte, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					received <- nil
					return
				}
				defer conn.Close()
				op := make([]byte, 1)
				if _, err := io.ReadFull(conn, op); err != nil {
					received <- nil
					return
				}
				conn.Write(answer)
				rest, _ := io.ReadAll(conn) // everything else the client sends
				received <- append(op, rest...)
			}()
			client, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			geo := testGeometry(memory.TagSep, 8, 32)
			reqs := []core.BatchRequest{{Idx: []int{1}, Weights: []uint64{1}}}
			for call := 1; call <= 2; call++ {
				// A client that sent its batch would wait on a reply the fake
				// never writes; the deadline turns that into a failure.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := client.WeightedTagSumBatch(ctx, geo, reqs, true)
				cancel()
				if !errors.Is(err, ErrProtocol) || !errors.Is(err, errors.ErrUnsupported) {
					t.Fatalf("call %d: %v, want ErrProtocol wrapping errors.ErrUnsupported", call, err)
				}
				if !client.Usable() {
					t.Fatalf("call %d: the protocol check poisoned the connection", call)
				}
			}
			client.Close()
			if got := <-received; !bytes.Equal(got, []byte{opCaps}) {
				t.Fatalf("server received % x, want the one probe byte alone", got)
			}
		})
	}
}

// TestProtocolErrorDrawsNoRetry: through a ReliableClient, ErrProtocol is
// the server's answer, not a transport failure: one attempt, no retry,
// and the breaker stays closed.
func TestProtocolErrorDrawsNoRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					op, err := r.ReadByte()
					if err != nil {
						return
					}
					switch op {
					case opPing: // the pool's dial health check
						conn.Write([]byte{statusOK})
					default:
						conn.Write(binary.AppendUvarint([]byte{statusOK}, capBatch))
					}
				}
			}()
		}
	}()
	rc := dialReliable(t, ln.Addr().String(), ReliableConfig{Retry: fastRetry()})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = rc.WeightedTagSumBatch(ctx, testGeometry(memory.TagSep, 8, 32),
		[]core.BatchRequest{{Idx: []int{1}, Weights: []uint64{1}}}, true)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("batch against a batch-only server: %v, want ErrProtocol", err)
	}
	if st := rc.Stats(); st.Attempts != 1 || st.Retries != 0 || st.BreakerState != "closed" {
		t.Fatalf("stats %+v, want one attempt, no retry, a closed breaker", st)
	}
}

// TestServerAnswersPackedWhateverFlags: the server's reply to an opBatch
// frame is exactly the packed marshaller's bytes whether or not the
// request carries batchFlagPacked. One connection's frames serve every
// request, so the reused result buffer is exercised across shapes as
// well.
func TestServerAnswersPackedWhateverFlags(t *testing.T) {
	mem := memory.NewSpace()
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 32, 16)
	rng := rand.New(rand.NewSource(303))
	if _, err := scheme.EncryptTable(mem, geo, 1, randRows(rng, 32, 16, 1<<32)); err != nil {
		t.Fatal(err)
	}
	ndp := &core.HonestNDP{Mem: mem}
	rg := ring.MustNew(32)
	srv := NewServer(mem)
	fr := &connFrames{}
	for _, flags := range []uint64{batchFlagVerify | batchFlagPacked, batchFlagPacked, batchFlagVerify, 0, batchFlagVerify | batchFlagPacked} {
		reqs := randBatch(rng, 1+rng.Intn(9), 1+rng.Intn(4), 32)
		reqs[0].Idx = []int{99} // a per-sub error rides in the reply
		verify := flags&batchFlagVerify != 0
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		frame := appendBatchRequest([]byte{opBatch}, geo, reqs, flags)
		if err := srv.serveOne(bufio.NewReader(bytes.NewReader(frame)), w, fr); err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		w.Flush()
		res, err := ndp.WeightedTagSumBatch(context.Background(), geo, reqs, verify)
		if err != nil {
			t.Fatal(err)
		}
		if want := appendPackedBatchResponse([]byte{statusOK}, res, verify, rg); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("flags %#x: server reply differs from the packed marshaller's bytes", flags)
		}
	}
}

// TestPackedReplyWireBytes: at the batch_cluster shape as one shard sees
// it — 58 verified sub-requests of two rows each over a 64-column 32-bit
// table — the reply is exactly its status byte plus, per sub-result, a
// status byte, a one-byte count, 64 four-byte lanes and the 16-byte tag:
// no sum costs more than the width it is stored in.
func TestPackedReplyWireBytes(t *testing.T) {
	mem := memory.NewSpace()
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	const rows, m, subs = 1024, 64, 58
	geo := testGeometry(memory.TagSep, rows, m)
	rng := rand.New(rand.NewSource(304))
	if _, err := scheme.EncryptTable(mem, geo, 1, randRows(rng, rows, m, 1<<20)); err != nil {
		t.Fatal(err)
	}
	reqs := randBatch(rng, subs, 2, rows)
	res, err := (&core.HonestNDP{Mem: mem}).WeightedTagSumBatch(context.Background(), geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	got := len(appendPackedBatchResponse([]byte{statusOK}, res, true, ring.MustNew(32)))
	if want := 1 + subs*(1+1+m*4+16); got != want {
		t.Fatalf("%d sub-results × %d columns: reply %d B, want %d", subs, m, got, want)
	}
}

// TestRetiredOpsAnsweredAsUnknown: opcodes 1 and 2, the retired
// single-query ops, get the reply any unknown op gets, and the
// connection goes on serving the ops after them.
func TestRetiredOpsAnsweredAsUnknown(t *testing.T) {
	_, _, addr := startServer(t)
	for _, op := range []byte{1, 2} {
		t.Run(fmt.Sprintf("op %d", op), func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte{op, opPing}); err != nil {
				t.Fatal(err)
			}
			msg := fmt.Sprintf("unknown op %d", op)
			want := append(binary.AppendUvarint([]byte{statusErr}, uint64(len(msg))), msg...)
			want = append(want, statusOK)
			got := make([]byte, len(want))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("server answered % x, want % x", got, want)
			}
		})
	}
}
