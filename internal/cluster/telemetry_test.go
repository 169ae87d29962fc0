package cluster_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"trex"
	"trex/internal/cluster"
	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/telemetry"
)

// queriesTotal sums trex_queries_total across every method label in one
// engine registry snapshot.
func queriesTotal(snap *telemetry.Snapshot) float64 {
	var sum float64
	for _, m := range []trex.Method{trex.MethodAuto, trex.MethodERA, trex.MethodTA, trex.MethodMerge, trex.MethodNRA} {
		if e, ok := snap.Get("trex_queries_total", map[string]string{"method": m.String()}); ok {
			sum += e.Value
		}
	}
	return sum
}

// TestPerShardTelemetryConformance cross-checks the three places the
// cluster accounts for its own traffic: per-replica engine registries
// (trex_queries_total), the coordinator registry (trex_cluster_fetches_total,
// trex_cluster_shard_page_reads_total) and the per-result ClusterStats.
// For a quiesced, single-threaded run all three must agree exactly.
func TestPerShardTelemetryConformance(t *testing.T) {
	col := skewedCollection(48, 4)
	c := mustCluster(t, col, cluster.Options{Shards: 2, Replicas: 2})
	single := mustSingle(t, col)
	materializeBoth(t, single, c, hotQuery)

	base := make(map[[2]int]float64)
	for s := 0; s < c.Shards(); s++ {
		for r := 0; r < c.Replicas(); r++ {
			base[[2]int{s, r}] = queriesTotal(c.Engine(s, r).MetricsRegistry().Snapshot())
		}
	}

	wantFetches := 0
	var wantPageReads uint64
	for i, m := range []trex.Method{trex.MethodERA, trex.MethodTA, trex.MethodNRA, trex.MethodMerge, trex.MethodERA} {
		res, err := c.Query(hotQuery, 2+i, m)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		wantFetches += res.Cluster.Fetches
		if res.Stats == nil {
			t.Fatalf("query %d: no aggregated stats", i)
		}
		wantPageReads += res.Stats.PageReads
		// Within one result the per-shard breakdown must sum to the
		// aggregate the coordinator reports.
		perShard := uint64(0)
		fetches := 0
		for _, ps := range res.Cluster.PerShard {
			perShard += ps.PageReads
			fetches += ps.Fetches
		}
		if perShard != res.Stats.PageReads {
			t.Fatalf("query %d: per-shard page reads %d != aggregate %d", i, perShard, res.Stats.PageReads)
		}
		if fetches != res.Cluster.Fetches {
			t.Fatalf("query %d: per-shard fetches %d != total %d", i, fetches, res.Cluster.Fetches)
		}
		if !res.Stats.IOExact {
			t.Fatalf("query %d: single-threaded cluster query not IOExact", i)
		}
	}

	// Per-replica engine counters: every coordinator fetch is exactly one
	// engine query, so the replica deltas must sum to the fetch total.
	var engineQueries float64
	for s := 0; s < c.Shards(); s++ {
		for r := 0; r < c.Replicas(); r++ {
			engineQueries += queriesTotal(c.Engine(s, r).MetricsRegistry().Snapshot()) - base[[2]int{s, r}]
		}
	}
	if engineQueries != float64(wantFetches) {
		t.Fatalf("sum of per-replica trex_queries_total deltas = %v, coordinator reported %d fetches", engineQueries, wantFetches)
	}

	// Coordinator registry agrees with the per-result accounting.
	snap := c.MetricsRegistry().Snapshot()
	var metFetches, metPages float64
	for s := 0; s < c.Shards(); s++ {
		lbl := map[string]string{"shard": []string{"0", "1"}[s]}
		if e, ok := snap.Get("trex_cluster_fetches_total", lbl); ok {
			metFetches += e.Value
		}
		if e, ok := snap.Get("trex_cluster_shard_page_reads_total", lbl); ok {
			metPages += e.Value
		}
	}
	if metFetches != float64(wantFetches) {
		t.Fatalf("trex_cluster_fetches_total sums to %v, results reported %d", metFetches, wantFetches)
	}
	if metPages != float64(wantPageReads) {
		t.Fatalf("trex_cluster_shard_page_reads_total sums to %v, results reported %d", metPages, wantPageReads)
	}
}

// TestClusterIOExactHonestUnderSegmentSwap races coordinator queries
// against a writer that keeps rematerializing (and therefore committing
// new segment generations) on one shard's only replica. The engine's
// telemetry guard must propagate through the coordinator's stats AND:
// overlapped windows drop the IOExact claim instead of attributing the
// writer's I/O to a query, and no query errors while generations swap
// under it.
func TestClusterIOExactHonestUnderSegmentSwap(t *testing.T) {
	// A realistically sized corpus so query windows are long enough to
	// overlap the writer (a toy corpus finishes each fetch in
	// microseconds and the race never materializes).
	col := corpus.GenerateIEEE(60, 7)
	q := `//article//sec[about(., ontologies case study)]`
	c := mustCluster(t, col, cluster.Options{
		Shards:   2,
		Replicas: 1,
		Engine:   trex.Options{SegmentLists: true},
	})
	if err := c.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	target := c.Engine(0, 0)
	swapsBefore := target.Store().Segments().Swaps()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := target.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
				t.Errorf("writer materialize: %v", err)
				return
			}
		}
	}()

	// Concurrent coordinator queries: overlapping fetch windows on the
	// swapping shard are what the guard must refuse to call exact. Two
	// scheduler threads are required for windows to actually overlap on a
	// single-core box (at GOMAXPROCS=1 a fetch runs to completion before
	// the next one starts and the race never happens). ERA and Merge
	// alternate so both the base index and the swapping lists are read.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var inexact atomic.Uint64
	var qwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(g int) {
			defer qwg.Done()
			for i := 0; i < 25; i++ {
				m := trex.MethodERA
				if (g+i)%2 == 0 {
					m = trex.MethodMerge
				}
				res, err := c.Query(q, 5, m)
				if err != nil {
					t.Errorf("query during segment swaps: %v", err)
					return
				}
				if res.Stats != nil && !res.Stats.IOExact {
					inexact.Add(1)
				}
			}
		}(g)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if swaps := target.Store().Segments().Swaps(); swaps == swapsBefore {
		t.Fatalf("writer committed no segment generation swaps; the race never happened")
	}
	if inexact.Load() == 0 {
		t.Fatalf("no coordinator result dropped IOExact despite mid-query segment swaps on shard 0")
	}
}
