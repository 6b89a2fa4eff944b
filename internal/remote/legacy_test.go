package remote

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"slices"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
)

// TestLegacySingleOpsAnswerSumsThatVerify: no client sends opWeightedSum
// or opTagSum any more, but the server still answers them for legacy
// clients. Raw frames, built as such a client builds them, get the sums
// and tag sum the batch op answers for the same request, and that answer,
// joined with the processor's shares, decrypts to the plaintext and
// verifies.
func TestLegacySingleOpsAnswerSumsThatVerify(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 16, 8)
	rows := randRows(rand.New(rand.NewSource(9)), 16, 8, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	idx, w := []int{2, 7, 7, 11}, []uint64{5, 6, 1, 7}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(op byte) {
		t.Helper()
		if _, err := conn.Write(appendQuery(appendGeometry([]byte{op}, geo), idx, w)); err != nil {
			t.Fatal(err)
		}
		if err := readStatus(r); err != nil {
			t.Fatalf("%s: %v", opName(op), err)
		}
	}
	send(opWeightedSum)
	sums, err := readSumResponse(r, geo.Params.M)
	if err != nil {
		t.Fatal(err)
	}
	send(opTagSum)
	tag, err := readTagResponse(r)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	batchSums, batchTag, err := sumOne(ctx, client, geo, idx, w, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sums, batchSums) || !tag.Equal(batchTag) {
		t.Fatal("legacy single ops answer differently from the batch op")
	}
	eres, err := tab.OTPWeightedSumCtx(ctx, idx, w, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	etag, err := tab.TagPadSumCtx(ctx, idx, w, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := tab.Decrypt(sums, eres)
	if !tab.Checksum(vals).Equal(field.Add(tag, etag)) {
		t.Fatal("legacy answer fails verification")
	}
	for j := range vals {
		want := (5*rows[2][j] + 7*rows[7][j] + 7*rows[11][j]) & 0xFFFFFFFF
		if vals[j] != want {
			t.Fatalf("col %d: %d != %d", j, vals[j], want)
		}
	}
}
