// Quickstart: the SecNDP scheme end to end on a small matrix, through the
// public secndp facade.
//
// A trusted Engine encrypts a private matrix into untrusted memory
// (Algorithm 1 + verification tags), an untrusted NDP unit computes a
// weighted summation over the ciphertext (Algorithm 4), and the engine
// decrypts with one addition and verifies the result against an encrypted
// linear checksum (Algorithm 5) — all behind a single Query call running
// the concurrent query engine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"secndp"
)

func main() {
	// The engine owns the secret key and the version discipline (§V-A);
	// neither ever leaves the trusted side. The telemetry registry makes
	// every query observable: counters, per-phase latency histograms, and
	// a trace tree per operation (serve reg.Handler() for /metrics and
	// /debug/traces — see DESIGN.md §7).
	reg := secndp.NewTelemetry()
	eng, err := secndp.New([]byte("an AES-128 key!!"),
		secndp.WithParallelism(4), // shard the OTP pad loop across 4 workers
		secndp.WithTelemetry(reg))
	if err != nil {
		log.Fatal(err)
	}

	// An 8×32 matrix of 32-bit elements, tags co-located with the rows.
	const n, m = 8, 32
	plain := make([][]uint64, n)
	for i := range plain {
		plain[i] = make([]uint64, m)
		for j := range plain[i] {
			plain[i][j] = uint64(100*i + j)
		}
	}

	// T0 (Figure 4): encrypt into the untrusted memory. CreateTable routes
	// provisioning through a Backend — LocalBackend here binds the table to
	// an in-process NDP over that memory (see examples/remote and
	// examples/cluster for the other backends).
	mem := secndp.NewMemory()
	table, err := eng.CreateTable(context.Background(), secndp.LocalBackend(mem), secndp.TableSpec{
		Name: "demo-table", Rows: n, Cols: m, Tags: secndp.TagsColocated,
	}, plain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encrypted %d×%d matrix under version %d\n", n, m, table.Version())

	// T1: the untrusted NDP computes over ciphertext while the engine
	// regenerates OTP shares; Query joins, decrypts, and verifies.
	req := secndp.Request{Idx: []int{1, 3, 5}, Weights: []uint64{2, 3, 4}}
	res, err := table.Query(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}

	// Check against the plaintext computation.
	for j := 0; j < m; j++ {
		want := 2*plain[1][j] + 3*plain[3][j] + 4*plain[5][j]
		if res.Values[j] != want {
			log.Fatalf("column %d: got %d, want %d", j, res.Values[j], want)
		}
	}
	fmt.Printf("verified=%v weighted sum over rows %v with weights %v: first columns %v\n",
		res.Verified, req.Idx, req.Weights, res.Values[:4])

	// Result.Timing is the query's anatomy: the concurrent phases (OTP pad
	// regeneration, NDP round trip, tag pads) overlap, so they do not sum
	// to Total.
	fmt.Printf("timing: total=%v pad=%v ndp=%v tag=%v verify=%v\n",
		res.Timing.Total, res.Timing.Pad, res.Timing.NDP, res.Timing.Tag, res.Timing.Verify)

	// Tamper with one ciphertext bit: the verification must reject.
	mem.FlipBit(table.Geometry().Layout.RowAddr(3)+7, 0)
	_, err = table.Query(context.Background(), req)
	if errors.Is(err, secndp.ErrVerification) {
		fmt.Println("tampered ciphertext correctly rejected:", err)
	} else {
		log.Fatalf("tampering was not detected (err=%v)", err)
	}

	// One registry snapshot carries the whole session's story.
	for _, c := range reg.Snapshot().Counters {
		if c.Value != 0 {
			fmt.Printf("metric %s = %d\n", c.Name, c.Value)
		}
	}
}
