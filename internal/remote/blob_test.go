package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// TestWriteBlobSplitsOversizeBlobs: a blob longer than the server's frame
// limit lands intact, as ceil(len/maxVectorLen) writes; one that fits is
// exactly one exchange.
func TestWriteBlobSplitsOversizeBlobs(t *testing.T) {
	mem := memory.NewSpace()
	srv := NewServer(mem)
	reg := telemetry.NewRegistry()
	srv.Instrument(reg) // before Listen: the accept loop reads the counters
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := dial(t, addr)
	blobOps := reg.Counter("secndp_server_ops_write_blob_total", "").Value
	for _, tc := range []struct{ size, ops int }{
		{maxVectorLen, 1},
		{maxVectorLen + 1, 2},
		{2*maxVectorLen + 4096, 3},
	} {
		data := make([]byte, tc.size)
		rand.New(rand.NewSource(int64(tc.size))).Read(data)
		before := blobOps()
		if err := client.WriteBlobContext(context.Background(), 0x10000, data); err != nil {
			t.Fatalf("%d-byte blob: %v", tc.size, err)
		}
		if got := blobOps() - before; got != uint64(tc.ops) {
			t.Errorf("%d-byte blob took %d exchanges, want %d", tc.size, got, tc.ops)
		}
		if !bytes.Equal(mem.Snapshot(0x10000, tc.size), data) {
			t.Errorf("%d-byte blob did not land intact", tc.size)
		}
	}
}

// TestServerDropsConnectionOnOversizeBlob: an opWriteBlob header announcing
// more than maxVectorLen bytes must end the connection, not draw a statusErr
// that leaves the payload to be parsed as the next requests.
func TestServerDropsConnectionOnOversizeBlob(t *testing.T) {
	_, _, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	frame := binary.AppendUvarint(binary.AppendUvarint([]byte{opWriteBlob}, 0x10000), maxVectorLen+1)
	// The start of the "payload" is a well-formed ping: a server that
	// answered statusErr and kept reading would answer it too.
	frame = append(frame, opPing)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
		t.Fatalf("server kept the connection: replied %x (err %v), want EOF with no reply", reply, err)
	}
}

// TestServerDrainsBlobBeforeRejectingAddress: a well-sized blob at an
// address beyond the physical space is refused with statusErr only after
// its payload is consumed, so the next request on the stream still parses.
func TestServerDrainsBlobBeforeRejectingAddress(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	payload := bytes.Repeat([]byte{0xFF}, 64) // unread, each byte would parse as an unknown op
	if err := client.WriteBlobContext(context.Background(), 1<<62, payload); err == nil {
		t.Fatal("blob beyond the physical address space accepted")
	}
	if err := client.PingContext(context.Background()); err != nil {
		t.Errorf("stream out of sync after a rejected blob: %v", err)
	}
}

// TestServerRejectsBlobRunningPastAddressSpace: a blob that starts inside
// the physical address space and runs past otp.MaxAddr is refused whole,
// after its payload is drained, so the connection stays usable and no
// byte of it lands on either side of the limit.
func TestServerRejectsBlobRunningPastAddressSpace(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if err := client.WriteBlobContext(context.Background(), otp.MaxAddr-15, payload); !isServerError(err) {
		t.Fatalf("blob over the top of the address space: err %v, want a server error", err)
	}
	if err := client.PingContext(context.Background()); err != nil {
		t.Errorf("stream out of sync after a rejected blob: %v", err)
	}
	if got := mem.Snapshot(otp.MaxAddr-15, len(payload)); !bytes.Equal(got, make([]byte, len(payload))) {
		t.Errorf("rejected blob left bytes in memory: %x", got)
	}
	// The last 16 bytes of the space are still writable.
	if err := client.WriteBlobContext(context.Background(), otp.MaxAddr-15, payload[:16]); err != nil {
		t.Errorf("blob ending at the top of the address space: %v", err)
	}
}
