package remote

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
)

var key = []byte("remote-test-key!")

func startServer(t *testing.T) (*Server, *memory.Space, string) {
	t.Helper()
	mem := memory.NewSpace()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, mem, addr
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sumOne is one whole-row query over n, sent as what every query is on the
// wire, a batch of one: its sums and tag, or the batch's or the request's
// error.
func sumOne(ctx context.Context, n core.NDP, geo core.Geometry, idx []int, w []uint64, verify bool) ([]uint64, field.Elem, error) {
	res, err := n.WeightedTagSumBatch(ctx, geo, []core.BatchRequest{{Idx: idx, Weights: w}}, verify)
	if err != nil {
		return nil, field.Zero, err
	}
	if res[0].Err != nil {
		return nil, field.Zero, res[0].Err
	}
	return res[0].Sums, res[0].Tag, nil
}

func testGeometry(placement memory.TagPlacement, n, m int) core.Geometry {
	return core.Geometry{
		Layout: memory.Layout{
			Placement: placement, Base: 0x10000, TagBase: 0x800000,
			NumRows: n, RowBytes: m * 4,
		},
		Params: core.Params{We: 32, M: m},
	}
}

func randRows(rng *rand.Rand, n, m int, bound uint64) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % bound
		}
	}
	return rows
}

func TestRemoteVerifiedQuery(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)

	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 32, 32)
	rng := rand.New(rand.NewSource(1))
	rows := randRows(rng, 32, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{1, 5, 9}
	w := []uint64{2, 3, 4}
	got, err := tab.QueryVerified(client, idx, w)
	if err != nil {
		t.Fatalf("remote verified query failed: %v", err)
	}
	for j := 0; j < 32; j++ {
		want := 2*rows[1][j] + 3*rows[5][j] + 4*rows[9][j]
		if got[j] != want&0xFFFFFFFF {
			t.Fatalf("col %d: %d != %d", j, got[j], want)
		}
	}
}

func TestRemoteECCPlacement(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagECC, 16, 32)
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, 16, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.QueryVerified(client, []int{0, 15}, []uint64{1, 1}); err != nil {
		t.Fatalf("Ver-ECC remote query failed: %v", err)
	}
}

func TestRemoteDetectsServerSideTamper(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 8, 32)
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 8, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	// The server operator (adversary) corrupts its own memory.
	mem.FlipBit(geo.Layout.RowAddr(1)+2, 3)
	if _, err := tab.QueryVerified(client, []int{0, 1}, []uint64{1, 1}); !errors.Is(err, core.ErrVerification) {
		t.Errorf("server-side tamper not rejected: %v", err)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	_, mem, addr := startServer(t)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(4))
	rows := randRows(rng, 16, 32, 1<<20)

	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for q := 0; q < 10; q++ {
				idx := []int{g % 16, (g + q) % 16}
				w := []uint64{1, 2}
				got, err := tab.QueryVerified(c, idx, w)
				if err != nil {
					errs <- err
					return
				}
				want := rows[idx[0]][0] + 2*rows[idx[1]][0]
				if got[0] != want&0xFFFFFFFF {
					errs <- errors.New("concurrent result mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteServerRejectsBadQueries(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	geo := testGeometry(memory.TagNone, 4, 32)
	var se *serverError
	if res, _, err := sumOne(context.Background(), client, geo, []int{99}, []uint64{1}, false); !errors.As(err, &se) || res != nil {
		t.Fatalf("out-of-range remote query returned %v, %v; want a server error", res, err)
	}
	// A server-reported rejection keeps the stream usable.
	if !client.Usable() {
		t.Error("connection poisoned by a semantic rejection")
	}
}

func TestRemoteWriteECCValidation(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	if err := client.WriteECCContext(context.Background(), 0, make([]byte, 8)); err == nil {
		t.Error("short ECC tag accepted")
	}
}

func TestClientWeightedSumElemUnsupported(t *testing.T) {
	_, _, addr := startServer(t)
	geo := testGeometry(memory.TagNone, 4, 32)
	for name, c := range map[string]core.NDP{
		"client":   dial(t, addr),
		"reliable": dialReliable(t, addr, ReliableConfig{Retry: fastRetry()}),
	} {
		if _, err := c.WeightedSumElem(context.Background(), geo, []int{0}, []int{0}, []uint64{1}); !errors.Is(err, errors.ErrUnsupported) {
			t.Errorf("%s: WeightedSumElem = %v, want errors.ErrUnsupported", name, err)
		}
	}
}

func TestRemoteColocPlacement(t *testing.T) {
	// Ver-coloc tags sit inside the data span; the server gathers them
	// with the rows.
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagColoc, Base: 0x10000,
			NumRows: 8, RowBytes: 128,
		},
		Params: core.Params{We: 32, M: 32},
	}
	rng := rand.New(rand.NewSource(9))
	rows := randRows(rng, 8, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.QueryVerified(client, []int{2, 6}, []uint64{3, 4})
	if err != nil {
		t.Fatalf("coloc remote query failed: %v", err)
	}
	want := 3*rows[2][0] + 4*rows[6][0]
	if got[0] != want&0xFFFFFFFF {
		t.Error("coloc remote result wrong")
	}
}
