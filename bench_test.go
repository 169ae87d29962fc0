// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5). Each BenchmarkTable1/BenchmarkFigure* target
// corresponds to one table or figure; sub-benchmarks split methods and k
// values so `go test -bench` output forms the figure's series.
//
// Corpus scale is reduced (hundreds of documents instead of INEX's
// 17k-660k) so the suite runs in minutes; the DESIGN.md shape targets —
// who wins, where the crossovers fall — are what these benchmarks verify.
package trex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trex"
	"trex/internal/bench"
	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/selfmanage"
	"trex/internal/summary"
)

var (
	pairOnce sync.Once
	pair     *bench.EnvPair
	pairErr  error
)

// benchScale shrinks corpora under -short or the TREX_BENCH_SCALE env.
func benchScale() float64 {
	if s := os.Getenv("TREX_BENCH_SCALE"); s != "" {
		var f float64
		if _, err := fmt.Sscanf(s, "%f", &f); err == nil && f > 0 {
			return f
		}
	}
	return 0.5
}

func envPair(b *testing.B) *bench.EnvPair {
	b.Helper()
	pairOnce.Do(func() {
		pair, pairErr = bench.NewEnvPair(benchScale())
	})
	if pairErr != nil {
		b.Fatal(pairErr)
	}
	return pair
}

// BenchmarkSummarySizes regenerates the Section 2.1 statistics: node
// counts of the tag / incoming summaries with and without aliases.
func BenchmarkSummarySizes(b *testing.B) {
	p := envPair(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.SummarySizes(p.IEEE.Col)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				unit := strings.ReplaceAll(r.Summary, " ", "-") + "-nodes"
				b.ReportMetric(float64(r.Nodes), unit)
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: per-query translation sizes and
// answer counts.
func BenchmarkTable1(b *testing.B) {
	p := envPair(b)
	rows, err := bench.Table1(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run("Q"+row.ID, func(b *testing.B) {
			env := p.EnvFor(bench.QueryByID(row.ID))
			for i := 0; i < b.N; i++ {
				if _, err := env.Engine.Query(row.NEXI, 0, trex.MethodERA); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.NumSIDs), "sids")
			b.ReportMetric(float64(row.NumTerms), "terms")
			b.ReportMetric(float64(row.NumAnswers), "answers")
		})
	}
}

// benchFigure runs one paper figure: methods x k sweep for a query.
func benchFigure(b *testing.B, id string) {
	p := envPair(b)
	q := bench.QueryByID(id)
	env := p.EnvFor(q)
	if err := env.Ensure(q.NEXI); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10, 100, 1000} {
		for _, m := range []trex.Method{trex.MethodERA, trex.MethodTA, trex.MethodMerge} {
			name := fmt.Sprintf("%s/k=%d", m, k)
			b.Run(name, func(b *testing.B) {
				var lastCost float64
				for i := 0; i < b.N; i++ {
					res, err := env.Engine.Query(q.NEXI, k, m)
					if err != nil {
						b.Fatal(err)
					}
					lastCost = res.Stats.CostProxy()
					if m == trex.MethodTA {
						b.ReportMetric(float64(res.Stats.ITATime().Nanoseconds()), "ita-ns")
					}
				}
				b.ReportMetric(lastCost, "cost")
			})
		}
	}
}

// BenchmarkFigure4Q202 and the rest regenerate Figures 4-6, one per
// paper query.
func BenchmarkFigure4Q202(b *testing.B) { benchFigure(b, "202") }
func BenchmarkFigure4Q203(b *testing.B) { benchFigure(b, "203") }
func BenchmarkFigure5Q260(b *testing.B) { benchFigure(b, "260") }
func BenchmarkFigure5Q270(b *testing.B) { benchFigure(b, "270") }
func BenchmarkFigure6Q233(b *testing.B) { benchFigure(b, "233") }
func BenchmarkFigure6Q290(b *testing.B) { benchFigure(b, "290") }
func BenchmarkFigure6Q292(b *testing.B) { benchFigure(b, "292") }

// BenchmarkParallelQueries measures aggregate served-query throughput
// with all CPUs querying one shared engine — the web-API serving pattern
// the sharded storage read path exists for. Each method runs under
// b.RunParallel; qps is the aggregate across goroutines, and the page
// cache hit ratio over the run is reported alongside (parallel QPS only
// scales if hits stay lock-free).
func BenchmarkParallelQueries(b *testing.B) {
	col := corpus.GenerateIEEE(60, 7)
	eng, err := trex.CreateMemory(col, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//bdy//*[about(., model checking)]`,
	}
	for _, q := range queries {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range []trex.Method{trex.MethodERA, trex.MethodTA, trex.MethodMerge} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			before := eng.DB().Stats()
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1))
				i := 0
				for pb.Next() {
					q := queries[(w+i)%len(queries)]
					i++
					if _, err := eng.Query(q, 10, m); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			d := eng.DB().Stats().Sub(before)
			if d.CacheHits+d.CacheMisses > 0 {
				b.ReportMetric(float64(d.CacheHits)/float64(d.CacheHits+d.CacheMisses), "hit-ratio")
			}
		})
	}
}

// BenchmarkMaterialize measures redundant-list construction (the paper's
// "TReX uses ERA for generating the RPLs and ERPLs tables").
func BenchmarkMaterialize(b *testing.B) {
	col := corpus.GenerateIEEE(100, 5)
	const q = `//article//sec[about(., ontologies case study)]`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := trex.CreateMemory(col, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
}

// BenchmarkReplanAfterCommit measures one write cycle's re-plan — what the
// benchmark's replan_p50_ms times: after an 8-document commit has dropped
// every list, SelfManage re-materializes and re-measures a workload on a
// 1,500-document generated IEEE collection (the size of paper_grid's).
// Only SelfManage is timed; the commit before it is not.
//
//   - unlimited: the five IEEE Table 1 queries with no space budget to
//     speak of, so every measured list is kept.
//   - half: sharedPairsWorkload at half the budget its unlimited plan
//     uses, as serve_http chooses its lists: later queries rebuild
//     (term, sid) pairs earlier ones built, and the plan drops many of
//     the candidates.
//
// `make profile BENCH=ReplanAfterCommit/half` profiles one of them.
func BenchmarkReplanAfterCommit(b *testing.B) {
	b.Run("unlimited", func(b *testing.B) {
		benchReplan(b, func(eng *trex.Engine) ([]trex.WorkloadQuery, int64) {
			return selfManageTable1(b, eng), 1 << 60
		})
	})
	b.Run("half", func(b *testing.B) {
		benchReplan(b, func(eng *trex.Engine) ([]trex.WorkloadQuery, int64) {
			workload := sharedPairsWorkload()
			full, err := eng.SelfManage(workload, 1<<60, trex.SolverGreedy)
			if err != nil {
				b.Fatal(err)
			}
			budget := full.Plan.DiskUsed / 2
			if _, err := eng.SelfManage(workload, budget, trex.SolverGreedy); err != nil {
				b.Fatal(err)
			}
			return workload, budget
		})
	})
}

// benchReplan times SelfManage after each commit, over the workload and
// budget setup chooses on the freshly built engine.
func benchReplan(b *testing.B, setup func(*trex.Engine) ([]trex.WorkloadQuery, int64)) {
	const initial, batch = 1500, 8
	col := corpus.Generate(corpus.Config{Style: corpus.StyleIEEE, Docs: initial + 32*batch, Seed: 20070415})
	tail := col.Docs[initial:]
	col.Docs = col.Docs[:initial]
	eng, err := trex.CreateMemory(col, &trex.Options{SegmentLists: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	workload, budget := setup(eng)
	ing := eng.NewIngestor()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			// Past the generated tail the documents repeat; each Add is a
			// new document all the same.
			if err := ing.Add(tail[next%len(tail)].Data); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if _, err := ing.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.SelfManage(workload, budget, trex.SolverGreedy); err != nil {
			b.Fatal(err)
		}
	}
}

// sharedPairsWorkload is a serve pool in miniature: four NEXI shapes ×
// subsets of three planted IEEE topics' words, with Zipf frequencies.
// Shapes share sids and subsets share terms, so most (term, sid) pairs
// belong to several queries.
func sharedPairsWorkload() []trex.WorkloadQuery {
	shapes := []string{
		`//article//sec[about(., %s)]`,
		`//sec[about(., %s)]`,
		`//article//p[about(., %s)]`,
		`//bdy//sec//p[about(., %s)]`,
	}
	subsets := []string{
		"ontologies", "case study", "ontologies case study",
		"model checking", "state space", "model checking state space",
		"information", "retrieval", "introduction information retrieval",
	}
	var workload []trex.WorkloadQuery
	for _, sub := range subsets {
		for _, shape := range shapes {
			workload = append(workload, trex.WorkloadQuery{
				NEXI: fmt.Sprintf(shape, sub),
				Freq: 1 / float64(len(workload)+1),
				K:    10,
			})
		}
	}
	return workload
}

// ieeeTable1 holds the five IEEE queries of the paper's Table 1.
var ieeeTable1 = []string{
	`//article[about(., ontologies)]//sec[about(., ontologies case study)]`,
	`//sec[about(., code signing verification)]`,
	`//article[about(.//bdy, synthesizers) and about(.//bdy, music)]`,
	`//bdy//*[about(., model checking state space explosion)]`,
	`//article//sec[about(., introduction information retrieval)]`,
}

// selfManageTable1 lets SelfManage choose, with no space budget to speak
// of, the lists for the ieeeTable1 queries asked at k = 10, and returns
// that workload.
func selfManageTable1(b *testing.B, eng *trex.Engine) []trex.WorkloadQuery {
	var workload []trex.WorkloadQuery
	for _, q := range ieeeTable1 {
		workload = append(workload, trex.WorkloadQuery{NEXI: q, Freq: 1, K: 10})
	}
	if _, err := eng.SelfManage(workload, 1<<60, trex.SolverGreedy); err != nil {
		b.Fatal(err)
	}
	return workload
}

// BenchmarkServeLadder measures the read path's serve loop — what the qps
// of the benchmark's paper_grid and cold_base workloads times: MethodAuto
// queries that bypass the result cache, round-robin over the ieeeTable1
// queries at every k of the ladder 1…1,000, on a 1,500-document generated
// IEEE collection whose lists SelfManage chose for those queries. One op
// is one query. `make profile BENCH=ServeLadder` profiles it.
func BenchmarkServeLadder(b *testing.B) {
	col := corpus.Generate(corpus.Config{Style: corpus.StyleIEEE, Docs: 1500, Seed: 20070415})
	eng, err := trex.CreateMemory(col, &trex.Options{SegmentLists: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	selfManageTable1(b, eng)
	ks := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ieeeTable1[i%len(ieeeTable1)]
		k := ks[i/len(ieeeTable1)%len(ks)]
		if _, err := eng.QueryOpts(q, trex.QueryOptions{K: k, Method: trex.MethodAuto, NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreate measures the base build — what the benchmark's setup_s
// and peak_rss_mb are set by: Create over a 1,500-document generated IEEE
// collection (the size of paper_grid's), summary and base index, into a
// file. One op is one Create; B/op and allocs/op are its garbage.
// `make profile BENCH=Create` profiles it.
func BenchmarkCreate(b *testing.B) {
	col := corpus.Generate(corpus.Config{Style: corpus.StyleIEEE, Docs: 1500, Seed: 20070415})
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := trex.Create(filepath.Join(dir, fmt.Sprintf("create-%d.trexdb", i)), col, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAdvisor measures the index-selection solvers on synthetic
// workloads (Section 4; validates the greedy/LP relationship at scale).
func BenchmarkAdvisor(b *testing.B) {
	mkWorkload := func(n int) *selfmanage.Workload {
		w := &selfmanage.Workload{}
		for i := 0; i < n; i++ {
			w.Queries = append(w.Queries, selfmanage.QuerySpec{
				ID:        fmt.Sprintf("q%d", i),
				Freq:      1.0 / float64(n),
				TimeERA:   float64(100 + i*37%900),
				TimeMerge: float64(10 + i*13%200),
				TimeTA:    float64(5 + i*29%300),
				MergeLists: []selfmanage.ListRef{
					{Key: fmt.Sprintf("e%d", i), Bytes: int64(100 + i*17%400)},
				},
				TALists: []selfmanage.ListRef{
					{Key: fmt.Sprintf("r%d", i), Bytes: int64(80 + i*23%300)},
				},
			})
		}
		return w
	}
	b.Run("greedy/n=100", func(b *testing.B) {
		w := mkWorkload(100)
		for i := 0; i < b.N; i++ {
			if _, err := selfmanage.Greedy(w, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp/n=14", func(b *testing.B) {
		w := mkWorkload(14)
		for i := 0; i < b.N; i++ {
			if _, err := selfmanage.LP(w, 2000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal/n=10", func(b *testing.B) {
		w := mkWorkload(10)
		for i := 0; i < b.N; i++ {
			if _, err := selfmanage.Optimal(w, 2000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuild measures BuildBase throughput (the Section 5.1
// loading step).
func BenchmarkIndexBuild(b *testing.B) {
	col := corpus.GenerateIEEE(50, 9)
	var bytes int64
	for _, d := range col.Docs {
		bytes += int64(len(d.Data))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := trex.CreateMemory(col, nil)
		if err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// BenchmarkSummaryBuild measures structural summary construction alone.
func BenchmarkSummaryBuild(b *testing.B) {
	col := corpus.GenerateIEEE(100, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := summary.Build(col, summary.Options{
			Kind: summary.KindIncoming, Aliases: col.Aliases,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
