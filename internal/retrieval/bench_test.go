package retrieval

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/summary"
)

// benchEnv is a lazily-built shared environment for retrieval benchmarks.
type benchEnvT struct {
	store *index.Store
	sids  []uint32
	terms []string
	sc    *score.Scorer
}

var (
	benchOnce sync.Once
	benchE    *benchEnvT
	benchErr  error
)

func retrievalBenchEnv(b testing.TB) *benchEnvT {
	b.Helper()
	benchOnce.Do(func() {
		col := corpus.GenerateIEEE(150, 41)
		sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming, Aliases: col.Aliases})
		if err != nil {
			benchErr = err
			return
		}
		db := storage.OpenMemory()
		st, err := index.Open(db)
		if err != nil {
			benchErr = err
			return
		}
		if _, err := index.BuildBase(st, col, sum); err != nil {
			benchErr = err
			return
		}
		// The Q260-style broad clause.
		var sids []uint32
		for _, n := range sum.Nodes {
			sids = append(sids, uint32(n.SID))
		}
		terms := []string{"model", "checking", "state", "space", "explosion"}
		sc, err := st.NewScorer(terms)
		if err != nil {
			benchErr = err
			return
		}
		if _, err := Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL); err != nil {
			benchErr = err
			return
		}
		benchE = &benchEnvT{store: st, sids: sids, terms: terms, sc: sc}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

// Ablation: random-access TA (Fagin) vs sorted-only NRA (TopX-style) —
// the implementation choice discussed in EXPERIMENTS.md.
func BenchmarkTAvsNRA(b *testing.B) {
	e := retrievalBenchEnv(b)
	for _, k := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("ta/k=%d", k), func(b *testing.B) {
			var sorted, random int
			for i := 0; i < b.N; i++ {
				_, st, err := TACtx(context.Background(), e.store, e.sids, e.terms, e.sc, k)
				if err != nil {
					b.Fatal(err)
				}
				sorted, random = st.SortedAccesses, st.RandomAccesses
			}
			b.ReportMetric(float64(sorted), "sorted")
			b.ReportMetric(float64(random), "random")
		})
		b.Run(fmt.Sprintf("nra/k=%d", k), func(b *testing.B) {
			var sorted int
			for i := 0; i < b.N; i++ {
				_, st, err := NRACtx(context.Background(), e.store, e.sids, e.terms, k)
				if err != nil {
					b.Fatal(err)
				}
				sorted = st.SortedAccesses
			}
			b.ReportMetric(float64(sorted), "sorted")
		})
	}
}

// TestTAAllocationCeiling guards TA's random-access path. At k=1000 on
// this fixture TA makes 4,000 random accesses; when each one built a
// cursor, a key and a decoded fragment the query cost 26,624 allocations.
// With one reusable probe per term it cost 573, none of them per access,
// and with the seen set one pre-sized table instead of a growing map it
// costs about 550: the iterators, probes and cursors of five terms and the
// blocks the RPL iterators decode.
func TestTAAllocationCeiling(t *testing.T) {
	e := retrievalBenchEnv(t)
	const ceiling = 560
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := TACtx(context.Background(), e.store, e.sids, e.terms, e.sc, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("TA k=1000 allocates %.0f times per query, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkERABaseline isolates the always-available strategy.
func BenchmarkERABaseline(b *testing.B) {
	e := retrievalBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := ERACtx(context.Background(), e.store, e.sids, e.terms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeBaseline isolates the ERPL sweep.
func BenchmarkMergeBaseline(b *testing.B) {
	e := retrievalBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := MergeCtx(context.Background(), e.store, e.sids, e.terms, 10); err != nil {
			b.Fatal(err)
		}
	}
}
