package secndp

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// Tables of one engine naming the same shard addresses share one
// reliable transport per address, reference-counted by the tables, and
// the per-(shard, replica) transport gauges report that shared transport
// for as long as a table uses it.

// sharedTables stands up two shard servers and provisions n 64×16
// tables of one telemetry-instrumented engine across both, by address.
func sharedTables(t *testing.T, n int) (*Telemetry, []*Table, [][][]uint64) {
	t.Helper()
	var specs []ShardSpec
	for s := 0; s < 2; s++ {
		srv := NewServer(NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs = append(specs, ShardSpec{Addr: addr})
	}
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg), WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	var tabs []*Table
	var plains [][][]uint64
	for i := 0; i < n; i++ {
		rows := testRows(rng, 64, 16, 1<<20)
		tab, err := eng.CreateTable(context.Background(), ClusterBackend(specs...),
			TableSpec{Rows: 64, Cols: 16, Base: DefaultBase + uint64(i)<<20}, rows)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
		plains = append(plains, rows)
	}
	return reg, tabs, plains
}

// gaugeValue reads a gauge from a snapshot; ok is false when no such
// series is registered.
func gaugeValue(reg *Telemetry, name string) (v int64, ok bool) {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// queryBoth runs n verified queries touching both shards and checks them.
func queryBoth(t *testing.T, tab *Table, rows [][]uint64, n int) {
	t.Helper()
	req := Request{Idx: []int{1, 40}, Weights: []uint64{3, 5}}
	for i := 0; i < n; i++ {
		res, err := tab.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified || !slices.Equal(res.Values, plainSum(rows, req.Idx, req.Weights, 16, 0xFFFFFFFF)) {
			t.Fatalf("query %d: verified %v, values %v", i, res.Verified, res.Values)
		}
	}
}

const shard0Attempts = "secndp_cluster_shard0_replica0_transport_attempts"

// TestSharedTransportGaugesCountEveryTable: both tables' traffic shows in
// the shard's transport attempts gauge — it reports the one transport
// they share, not whichever table registered last.
func TestSharedTransportGaugesCountEveryTable(t *testing.T) {
	reg, tabs, plains := sharedTables(t, 2)
	defer tabs[0].Close()
	defer tabs[1].Close()
	for i, tab := range tabs {
		before, ok := gaugeValue(reg, shard0Attempts)
		if !ok {
			t.Fatalf("%s is not registered", shard0Attempts)
		}
		queryBoth(t, tab, plains[i], 5)
		if after, _ := gaugeValue(reg, shard0Attempts); after-before < 5 {
			t.Fatalf("table %d's 5 queries moved %s by %d", i, shard0Attempts, after-before)
		}
	}
}

// TestSharedTransportCloseOneTable: closing one of two tables leaves the
// other serving over the transports they shared, with the gauges still
// following its traffic; closing the last drops the gauges.
func TestSharedTransportCloseOneTable(t *testing.T) {
	reg, tabs, plains := sharedTables(t, 2)
	queryBoth(t, tabs[0], plains[0], 1)
	tabs[0].Close()
	before, _ := gaugeValue(reg, shard0Attempts)
	queryBoth(t, tabs[1], plains[1], 3)
	if after, ok := gaugeValue(reg, shard0Attempts); !ok || after-before < 3 {
		t.Fatalf("after closing the other table, %s moved by %d (registered %v)", shard0Attempts, after-before, ok)
	}
	tabs[1].Close()
	if _, ok := gaugeValue(reg, shard0Attempts); ok {
		t.Fatalf("%s still exported after the last table using its transport closed", shard0Attempts)
	}
}
