package trex

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trex/internal/corpus"
	"trex/internal/index"
)

// TestTelemetryMixedQueryMaterializeRace is the -race regression for the
// instrumented read/write paths: concurrent queries against a writer
// looping Materialize. Before the telemetry guard, captureIO attributed
// the writer's page traffic to whichever query happened to be in flight;
// now overlapped windows must simply drop the IOExact claim, and every
// counter the registry reports must stay consistent with the traffic we
// actually issued.
func TestTelemetryMixedQueryMaterializeRace(t *testing.T) {
	col := corpus.GenerateIEEE(40, 303)
	eng, err := CreateMemory(col, &Options{
		Telemetry: &TelemetryOptions{SlowQueryThreshold: time.Nanosecond, SlowLogCapacity: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//bdy//*[about(., model checking)]`,
	}
	methods := []Method{MethodAuto, MethodERA}

	const readers = 4
	const iters = 25
	var issued, inexact atomic.Uint64
	var readerWG, writerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writer: keep materializing and re-materializing while readers run.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := queries[i%len(queries)]
			if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
				t.Errorf("materialize %q: %v", q, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; i < iters; i++ {
				q := queries[(r+i)%len(queries)]
				m := methods[(r+i)%len(methods)]
				res, err := eng.Query(q, 5, m)
				if err != nil {
					t.Errorf("query %q (%v): %v", q, m, err)
					return
				}
				issued.Add(1)
				if res.Trace == nil {
					t.Errorf("query %q: no trace", q)
					return
				}
				if !res.Trace.IOExact {
					inexact.Add(1)
				}
				// Even when inexact, the aggregates come from monotone
				// counters, so a span can never report negative-wrapped I/O.
				if res.Trace.BytesRead() > 1<<40 {
					t.Errorf("query %q: implausible byte count %d (delta underflow?)", q, res.Trace.BytesRead())
				}
			}
		}(r)
	}

	// The writer loops for as long as the readers are issuing queries, so
	// every reader faces live write traffic; then it drains and stops.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	if t.Failed() {
		return
	}

	// With a writer looping the whole time and four overlapping readers,
	// exclusivity must have been lost at least once; if every single
	// window still claimed exactness the guard is not wired in.
	if inexact.Load() == 0 {
		t.Error("no query lost IOExact despite concurrent writer traffic")
	}

	// Registry totals agree with the traffic we issued.
	snap := eng.MetricsRegistry().Snapshot()
	var counted float64
	for _, m := range []Method{MethodAuto, MethodERA, MethodTA, MethodMerge, MethodNRA} {
		if e, ok := snap.Get("trex_queries_total", map[string]string{"method": m.String()}); ok {
			counted += e.Value
		}
	}
	if counted != float64(issued.Load()) {
		t.Errorf("trex_queries_total sums to %v, issued %d", counted, issued.Load())
	}
	if e, ok := snap.Get("trex_slow_queries_total", nil); !ok || e.Value != float64(issued.Load()) {
		t.Errorf("trex_slow_queries_total = %v (ok=%v), want %d", e.Value, ok, issued.Load())
	}

	// Shard counters were bumped concurrently with the global atomics;
	// quiescent, they must agree again.
	g := eng.DB().Stats()
	var hits, misses uint64
	for _, sh := range eng.DB().CacheShardStats() {
		hits += sh.Hits
		misses += sh.Misses
	}
	if hits != g.CacheHits || misses != g.CacheMisses {
		t.Errorf("shard sums (%d/%d) != global (%d/%d)", hits, misses, g.CacheHits, g.CacheMisses)
	}

	// The exposition writer runs against the same live registry.
	var sb strings.Builder
	if err := eng.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	if !strings.Contains(sb.String(), "trex_storage_journal_commits_total") {
		t.Error("exposition missing journal commit counter after materialize traffic")
	}
}
