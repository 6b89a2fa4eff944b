// Tamper gallery: every attack of the paper's threat model (§II) against a
// SecNDP table, each defeated by the verification scheme (§IV-F/G):
//
//  1. bit flips in ciphertext (bus/DRAM tampering),
//
//  2. bit flips in stored tags,
//
//  3. relocation — copying valid ciphertext+tag between addresses,
//
//  4. replay — restoring a stale snapshot after re-encryption,
//
//  5. a malicious NDP PU returning corrupted results,
//
//  6. a malicious NDP forging the result tag,
//
//  7. silent ring overflow (footnote 1 — also caught).
//
// Run with:
//
//	go run ./examples/tamper
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
)

const (
	n, m = 16, 32
	pf   = 8
)

type attack struct {
	name string
	run  func(*env) error // returns the query error after the attack
}

type env struct {
	scheme *core.Scheme
	mem    *memory.Space
	table  *core.Table
	geo    core.Geometry
	idx    []int
	w      []uint64
}

// fresh builds a new encrypted table under the given version.
func fresh(version uint64) *env {
	scheme, err := core.NewScheme([]byte("tamper-demo-key!"))
	if err != nil {
		log.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagSep,
			Base:      0x10000,
			TagBase:   0x400000,
			NumRows:   n,
			RowBytes:  m * 4,
		},
		Params: core.Params{We: 32, M: m},
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	mem := memory.NewSpace()
	table, err := scheme.EncryptTable(mem, geo, version, rows)
	if err != nil {
		log.Fatal(err)
	}
	return &env{
		scheme: scheme, mem: mem, table: table, geo: geo,
		idx: []int{0, 2, 4, 6, 8, 10, 12, 14},
		w:   []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func (e *env) query() error {
	_, err := e.table.QueryVerified(&core.HonestNDP{Mem: e.mem}, e.idx, e.w)
	return err
}

// corruptedNDP flips the low bit of each answer's first result column.
type corruptedNDP struct{ core.HonestNDP }

func (c *corruptedNDP) WeightedTagSumBatch(ctx context.Context, g core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	res, err := c.HonestNDP.WeightedTagSumBatch(ctx, g, reqs, verify)
	for i := range res {
		if res[i].Err == nil {
			res[i].Sums[0] ^= 1
		}
	}
	return res, err
}

// forgingNDP perturbs each answer's tag share.
type forgingNDP struct{ core.HonestNDP }

func (f *forgingNDP) WeightedTagSumBatch(ctx context.Context, g core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	res, err := f.HonestNDP.WeightedTagSumBatch(ctx, g, reqs, verify)
	for i := range res {
		res[i].Tag = field.Add(res[i].Tag, field.One)
	}
	return res, err
}

func main() {
	attacks := []attack{
		{"ciphertext bit flip", func(e *env) error {
			e.mem.FlipBit(e.geo.Layout.RowAddr(4)+3, 5)
			return e.query()
		}},
		{"tag bit flip", func(e *env) error {
			e.mem.FlipBit(e.geo.Layout.TagAddr(2), 0)
			return e.query()
		}},
		{"row relocation (copy row 0 over row 2, tag included)", func(e *env) error {
			row := e.mem.Snapshot(e.geo.Layout.RowAddr(0), e.geo.Layout.RowBytes)
			tag := e.mem.Snapshot(e.geo.Layout.TagAddr(0), memory.TagBytes)
			e.mem.TamperWrite(e.geo.Layout.RowAddr(2), row)
			e.mem.TamperWrite(e.geo.Layout.TagAddr(2), tag)
			return e.query()
		}},
		{"replay of a stale version", func(e *env) error {
			stale := e.mem.Snapshot(e.geo.Layout.Base, n*e.geo.Layout.RowBytes)
			staleTags := e.mem.Snapshot(e.geo.Layout.TagBase, n*memory.TagBytes)
			// Re-encrypt in place under version 2 (fresh data), then the
			// adversary restores the version-1 bytes.
			e2 := fresh(2)
			e2.mem.Replay(e2.geo.Layout.Base, stale)
			e2.mem.Replay(e2.geo.Layout.TagBase, staleTags)
			*e = *e2
			return e.query()
		}},
		{"malicious NDP result", func(e *env) error {
			_, err := e.table.QueryVerified(&corruptedNDP{core.HonestNDP{Mem: e.mem}}, e.idx, e.w)
			return err
		}},
		{"malicious NDP tag forgery", func(e *env) error {
			_, err := e.table.QueryVerified(&forgingNDP{core.HonestNDP{Mem: e.mem}}, e.idx, e.w)
			return err
		}},
		{"ring overflow (weights too large)", func(e *env) error {
			huge := make([]uint64, len(e.idx))
			for i := range huge {
				huge[i] = 1 << 30 // 2^30 × 2^20 values overflow 2^32
			}
			_, err := e.table.QueryVerified(&core.HonestNDP{Mem: e.mem}, e.idx, huge)
			return err
		}},
	}

	e := fresh(1)
	if err := e.query(); err != nil {
		log.Fatalf("honest query rejected before any attack: %v", err)
	}
	fmt.Println("honest query verified: PASS")

	detected := 0
	for _, a := range attacks {
		env := fresh(1)
		err := a.run(env)
		if errors.Is(err, core.ErrVerification) {
			fmt.Printf("attack %-50s -> detected\n", a.name)
			detected++
		} else {
			fmt.Printf("attack %-50s -> NOT DETECTED (err=%v)\n", a.name, err)
		}
	}
	fmt.Printf("%d/%d attacks detected\n", detected, len(attacks))
	if detected != len(attacks) {
		log.Fatal("verification missed an attack")
	}
}
