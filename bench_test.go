package secndp

// Benchmark harness: one testing.B benchmark per paper artifact (Tables
// III–V, Figures 7–11), plus microbenchmarks of the scheme's primitives
// and the ablation benches called out in DESIGN.md §4 (A1 OTP-per-chunk,
// A2 multi-substring checksum, A4 Horner evaluation; A3 tag placement and
// A5 register count are swept inside the Fig. 9 and Fig. 7 harnesses).
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkTable3

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/dram"
	"secndp/internal/experiments"
	"secndp/internal/field"
	"secndp/internal/isa"
	"secndp/internal/memenc"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/remote"
	"secndp/internal/ring"
	"secndp/internal/store"
)

var benchOpts = experiments.Options{Quick: true, Seed: 1}

// --- Paper artifacts -------------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9And10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scheme microbenchmarks -------------------------------------------------

var benchKey = []byte("0123456789abcdef")

func benchTable(b *testing.B, placement memory.TagPlacement, n, m int, we uint) (*core.Scheme, *memory.Space, *core.Table, [][]uint64) {
	b.Helper()
	s, err := core.NewScheme(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	mem := memory.NewSpace()
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: placement, Base: 0x10000, TagBase: 0x4000000,
			NumRows: n, RowBytes: m * int(we) / 8,
		},
		Params: core.Params{We: we, M: m},
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		b.Fatal(err)
	}
	return s, mem, tab, rows
}

// BenchmarkArithEncrypt measures Algorithm 1 + tag generation throughput
// (bytes of plaintext per second).
func BenchmarkArithEncrypt(b *testing.B) {
	s, _, _, rows := benchTable(b, memory.TagSep, 256, 32, 32)
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagSep, Base: 0x10000, TagBase: 0x4000000,
			NumRows: 256, RowBytes: 128,
		},
		Params: core.Params{We: 32, M: 32},
	}
	b.SetBytes(256 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memory.NewSpace()
		if _, err := s.EncryptTable(mem, geo, uint64(i+1), rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures the full Algorithm 4 protocol (PF=80).
func BenchmarkQuery(b *testing.B) {
	_, mem, tab, _ := benchTable(b, memory.TagNone, 1024, 32, 32)
	ndp := &core.HonestNDP{Mem: mem}
	rng := rand.New(rand.NewSource(2))
	idx := make([]int, 80)
	w := make([]uint64, 80)
	for k := range idx {
		idx[k] = rng.Intn(1024)
		w[k] = 1 + uint64(rng.Intn(16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryCtx(context.Background(), ndp, idx, w, core.QueryOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryVerified measures Algorithm 4 + 5 (encrypted-MAC check).
func BenchmarkQueryVerified(b *testing.B) {
	_, mem, tab, _ := benchTable(b, memory.TagSep, 1024, 32, 32)
	ndp := &core.HonestNDP{Mem: mem}
	rng := rand.New(rand.NewSource(3))
	idx := make([]int, 80)
	w := make([]uint64, 80)
	for k := range idx {
		idx[k] = rng.Intn(1024)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryVerified(ndp, idx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldMul(b *testing.B) {
	x := field.New(0x1234567890ABCDEF, 0xFEDCBA0987654321)
	y := field.New(0x0F1E2D3C4B5A6978, 0x1122334455667788)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = field.Mul(x, y)
	}
	_ = x
}

func BenchmarkOTPBlock(b *testing.B) {
	g, err := otp.NewGenerator(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Block(otp.DomainData, uint64(i)*16, 1)
	}
}

func BenchmarkDRAMReadLineRandom(b *testing.B) {
	sys := dram.NewSystem(dram.DDR4_2400(), dram.DefaultOrg(8), dram.SharedBus)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ReadLine(rng.Uint64()%sys.Org.TotalBytes(), 0)
	}
}

// --- Ablations (DESIGN.md §4) ------------------------------------------------

// A1: one AES invocation per 128-bit chunk (the paper's design, l = wc/we
// elements per pad block) versus one invocation per element.
func BenchmarkAblationOTPPerChunk(b *testing.B) {
	g, _ := otp.NewGenerator(benchKey)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Pads(otp.DomainData, uint64(i)*128, 1, 8) // 128-byte row: 8 blocks
	}
}

func BenchmarkAblationOTPPerElement(b *testing.B) {
	g, _ := otp.NewGenerator(benchKey)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 128
		for j := uint64(0); j < 32; j++ { // one AES block per 32-bit element
			g.ElemPad(base+j*4, 1, 32)
		}
	}
}

// A2: Algorithm 2 single-seed checksum versus Algorithm 8 with four seed
// substrings (lower forgery bound, same asymptotic cost).
func BenchmarkAblationChecksumSingle(b *testing.B) {
	benchChecksum(b, 0)
}

func BenchmarkAblationChecksumMulti4(b *testing.B) {
	benchChecksum(b, 4)
}

func benchChecksum(b *testing.B, substrings int) {
	b.Helper()
	s, err := core.NewScheme(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagSep, Base: 0x10000, TagBase: 0x4000000,
			NumRows: 1, RowBytes: 4096,
		},
		Params: core.Params{We: 32, M: 1024, ChecksumSubstrings: substrings},
	}
	tab, err := s.OpenTable(geo, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	res := make([]uint64, 1024)
	for j := range res {
		res[j] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Checksum(res)
	}
}

// A4: Horner evaluation versus independent power computation for h_K.
func BenchmarkAblationHorner(b *testing.B) {
	coeffs, s := ablationPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.Horner(s, coeffs)
	}
}

func BenchmarkAblationNaivePowerSum(b *testing.B) {
	coeffs, s := ablationPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.NaivePowerSum(s, coeffs)
	}
}

func ablationPoly() ([]uint64, field.Elem) {
	rng := rand.New(rand.NewSource(6))
	coeffs := make([]uint64, 1024)
	for i := range coeffs {
		coeffs[i] = rng.Uint64()
	}
	return coeffs, field.New(rng.Uint64()&0x7FFFFFFFFFFFFFFF, rng.Uint64())
}

// A3 (tag placements) and A5 (register counts) are parameter sweeps of the
// Figure 9 and Figure 7 harnesses:
func BenchmarkAblationTagPlacements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ring weighted-summation throughput (the NDP PU inner loop).
func BenchmarkRingWeightedSum(b *testing.B) {
	r := ring.MustNew(32)
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint64, 80)
	w := make([]uint64, 80)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = r.Reduce(rng.Uint64())
		}
		w[i] = r.Reduce(rng.Uint64())
	}
	b.SetBytes(80 * 32 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.WeightedSum(w, rows)
	}
}

// --- New-subsystem microbenchmarks -------------------------------------------

// BenchmarkMemencReadLine measures the conventional TEE read path
// (decrypt + MAC + counter-tree walk) that SecNDP avoids per element.
func BenchmarkMemencReadLine(b *testing.B) {
	mem := memory.NewSpace()
	eng, err := memenc.NewEngine(benchKey, mem, memenc.Config{
		DataBase: 0x10000, MACBase: 0x200000, CounterBase: 0x300000, TreeBase: 0x400000,
		NumLines: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, memenc.LineBytes)
	for i := 0; i < 1024; i++ {
		if err := eng.WriteLine(i, line); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(memenc.LineBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ReadLine(i % 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISAIssue measures one SecNDPInst through the functional
// machine: NDP command + OTP regeneration + mirrored accumulate.
func BenchmarkISAIssue(b *testing.B) {
	scheme, err := core.NewScheme(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagNone, Base: 0x10000, NumRows: 64, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}
	mem := memory.NewSpace()
	rows := make([][]uint64, 64)
	for i := range rows {
		rows[i] = make([]uint64, 32)
	}
	if _, err := scheme.EncryptTable(mem, geo, 1, rows); err != nil {
		b.Fatal(err)
	}
	ma, err := isa.NewMachine(benchKey, mem, 4, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := isa.SecNDPInst{
			NDPInst: isa.NDPInst{
				Op: isa.OpMACC, Addr: geo.Layout.RowAddr(i % 64),
				VSize: 32, DSize: 32, Imm: 1, Reg: 0,
			},
			Version: 1,
		}
		if err := ma.Issue(inst, geo.Layout.Base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSaveLoad measures table-blob persistence round trips.
func BenchmarkStoreSaveLoad(b *testing.B) {
	scheme, _ := core.NewScheme(benchKey)
	geo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000, TagBase: 0x800000, NumRows: 256, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}
	mem := memory.NewSpace()
	rows := make([][]uint64, 256)
	for i := range rows {
		rows[i] = make([]uint64, 32)
	}
	if _, err := scheme.EncryptTable(mem, geo, 1, rows); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := store.Save(&buf, mem, geo, 1); err != nil {
			b.Fatal(err)
		}
		if _, _, err := store.Load(&buf, memory.NewSpace()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteQuery measures a verified query over a loopback TCP NDP.
func BenchmarkRemoteQuery(b *testing.B) {
	mem := memory.NewSpace()
	srv := remote.NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	scheme, _ := core.NewScheme(benchKey)
	geo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000, TagBase: 0x800000, NumRows: 256, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}
	rows := make([][]uint64, 256)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = uint64(i + j)
		}
	}
	staging := memory.NewSpace()
	tab, err := scheme.EncryptTable(staging, geo, 1, rows)
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.ShipRun(context.Background(), geo, staging, 0, len(rows), client); err != nil {
		b.Fatal(err)
	}
	idx := []int{1, 2, 3, 4, 5, 6, 7, 8}
	w := []uint64{1, 1, 1, 1, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryVerified(client, idx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// A6: row-buffer policy under the two access patterns. Open page wins for
// streaming; closed page can win for single-line random traffic.
func BenchmarkAblationOpenPageRandom(b *testing.B)   { benchPolicy(b, dram.OpenPage, true) }
func BenchmarkAblationClosedPageRandom(b *testing.B) { benchPolicy(b, dram.ClosedPage, true) }
func BenchmarkAblationOpenPageStream(b *testing.B)   { benchPolicy(b, dram.OpenPage, false) }
func BenchmarkAblationClosedPageStream(b *testing.B) { benchPolicy(b, dram.ClosedPage, false) }

func benchPolicy(b *testing.B, p dram.PagePolicy, random bool) {
	b.Helper()
	s := dram.NewSystem(dram.DDR4_2400(), dram.DefaultOrg(2), dram.SharedBus)
	s.Policy = p
	rng := rand.New(rand.NewSource(8))
	var done int64
	for i := 0; i < b.N; i++ {
		var addr uint64
		if random {
			addr = rng.Uint64() % s.Org.TotalBytes()
		} else {
			addr = uint64(i) * 64
		}
		done = s.ReadLine(addr, 0).Done
	}
	// Report simulated cycles per access as the meaningful metric.
	if b.N > 0 {
		b.ReportMetric(float64(done)/float64(b.N), "cycles/line")
	}
}
