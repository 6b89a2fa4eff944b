package secndp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The software NDP reads rows and tags in place, as spans of the
// untrusted memory's pages. These tests hold the two properties that
// rest on the memory's lock to the facade: an adversary's write is still
// seen and rejected, on every tag placement, locally and across the
// wire; and a reader beside a rotation never gets a torn row past the
// MAC.

// TestGatherRejectsTamperEveryBackend: FlipBit and Replay on a data line
// and on a tag line of one referenced row give ErrVerification from
// Query and QueryBatch, for every tagged placement, on LocalBackend and
// on RemoteBackend (whose server runs the same gather).
func TestGatherRejectsTamperEveryBackend(t *testing.T) {
	const nRows, cols, victim, donor = 64, 64, 17, 41
	modes := map[string]TagMode{"sep": TagsSeparate, "coloc": TagsColocated, "ecc": TagsECC}
	req := Request{Idx: []int{3, victim, 40, 9, 9, 22, 51, 60, 1, 33}, Weights: []uint64{1, 2, 3, 1, 2, 3, 1, 2, 3, 1}}
	clear := Request{Idx: []int{5, 6}, Weights: []uint64{1, 1}}
	for mname, mode := range modes {
		for _, remote := range []bool{false, true} {
			for _, attack := range []string{"flip data", "replay data", "flip tag", "replay tag"} {
				t.Run(fmt.Sprintf("%s/remote=%v/%s", mname, remote, attack), func(t *testing.T) {
					mem := NewMemory()
					backend := LocalBackend(mem)
					if remote {
						srv := NewServer(mem)
						addr, err := srv.Listen("127.0.0.1:0")
						if err != nil {
							t.Fatal(err)
						}
						defer srv.Close()
						client, err := DialNDP(context.Background(), addr)
						if err != nil {
							t.Fatal(err)
						}
						defer client.Close()
						backend = RemoteBackend(client)
					}
					eng, err := New(testKey)
					if err != nil {
						t.Fatal(err)
					}
					rows := testRows(rand.New(rand.NewSource(400)), nRows, cols, 1<<16)
					tab, err := eng.CreateTable(context.Background(), backend, TableSpec{Rows: nRows, Cols: cols, Tags: mode}, rows)
					if err != nil {
						t.Fatal(err)
					}
					defer tab.Close()
					if _, err := tab.QueryBatch(context.Background(), []Request{req, clear}); err != nil {
						t.Fatalf("before the attack: %v", err)
					}

					// Replay splices another row's valid ciphertext (or
					// tag) over the victim's: authentic bytes, wrong
					// address.
					lay := tab.Geometry().Layout
					switch {
					case attack == "flip data":
						mem.FlipBit(lay.RowAddr(victim)+130, 3)
					case attack == "replay data":
						mem.Replay(lay.RowAddr(victim), mem.Snapshot(lay.RowAddr(donor), lay.RowBytes))
					case mode == TagsECC:
						tag := mem.ReadECC(lay.RowAddr(donor), 16)
						if attack == "flip tag" {
							tag = mem.ReadECC(lay.RowAddr(victim), 16)
							tag[5] ^= 0x10
						}
						mem.TamperECC(lay.RowAddr(victim), tag)
					case attack == "flip tag":
						mem.FlipBit(lay.TagAddr(victim)+5, 4)
					default:
						mem.Replay(lay.TagAddr(victim), mem.Snapshot(lay.TagAddr(donor), 16))
					}

					if _, err := tab.Query(context.Background(), req); !errors.Is(err, ErrVerification) {
						t.Errorf("Query: got %v, want ErrVerification", err)
					}
					if _, err := tab.QueryBatch(context.Background(), []Request{req, clear}); !errors.Is(err, ErrVerification) {
						t.Errorf("QueryBatch: got %v, want ErrVerification", err)
					}
					if res, err := tab.Query(context.Background(), clear); err != nil || !res.Verified {
						t.Errorf("query clear of the victim: %+v, %v", res, err)
					}
				})
			}
		}
	}
}

// TestGatherReadersBesideReencrypt is the torn-row hammer (run it under
// -race): readers query and batch-query while the table rotates between
// two contents in place. A span is only ever read under the view's read
// lock and Reencrypt's writes take the write lock, so every answer is
// one epoch's plaintext sum — entirely — or ErrVerification from a walk
// that straddled the rewrite; any other value is a torn or stale row
// that passed the MAC.
func TestGatherReadersBesideReencrypt(t *testing.T) {
	const nRows, cols, rotations, readers = 128, 64, 24, 3
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(410))
	contents := [2][][]uint64{testRows(rng, nRows, cols, 1<<16), testRows(rng, nRows, cols, 1<<16)}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: nRows, Cols: cols}, contents[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered, rejected [readers]int
	var ops atomic.Int64 // answers of either kind, so the rotator can pace itself on the readers
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(420 + r)))
			check := func(req Request, res Result, err error) {
				defer ops.Add(1)
				if errors.Is(err, ErrVerification) {
					rejected[r]++
					return
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				answered[r]++
				for _, rows := range contents {
					if slices.Equal(res.Values, plainSum(rows, req.Idx, req.Weights, cols, 0xFFFFFFFF)) {
						return
					}
				}
				t.Errorf("reader %d: a verified answer matches neither epoch's contents", r)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				reqs := make([]Request, 3)
				for i := range reqs {
					n := 1 + rng.Intn(80)
					reqs[i] = Request{Idx: make([]int, n), Weights: make([]uint64, n)}
					for k := range reqs[i].Idx {
						reqs[i].Idx[k] = rng.Intn(nRows)
						reqs[i].Weights[k] = 1 + rng.Uint64()%4
					}
				}
				res, err := tab.Query(context.Background(), reqs[0])
				check(reqs[0], res, err)
				out, err := tab.QueryBatch(context.Background(), reqs)
				if err != nil {
					check(reqs[0], Result{}, err)
					continue
				}
				for i := range out {
					check(reqs[i], out[i], nil)
				}
			}
		}()
	}
	for i := 1; i <= rotations; i++ {
		if err := tab.Reencrypt(context.Background(), contents[i%2]); err != nil {
			t.Errorf("rotation %d: %v", i, err)
			break
		}
		// Let a few reads land on the settled table before the next
		// rewrite, so both outcomes occur whatever the scheduler does.
		for mark := ops.Load(); ops.Load() < mark+4*readers; {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	total := 0
	for r := range answered {
		total += answered[r]
	}
	t.Logf("%d rotations: answered %v, rejected %v", rotations, answered, rejected)
	if total == 0 {
		t.Fatalf("no reader got a verified answer beside %d rotations (rejected: %v)", rotations, rejected)
	}
}
