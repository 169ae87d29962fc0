// Command trexbench regenerates the paper's experimental tables and
// figures over the synthetic collections.
//
// Experiments (-exp):
//
//	summaries  summary node counts (Section 2.1)
//	sizes      base index sizes (Section 5.1)
//	table1     the seven queries' translations and answer counts (Table 1)
//	fig4       queries 202 and 203 (Figure 4)
//	fig5       queries 260 and 270 (Figure 5)
//	fig6       queries 233, 290 and 292 (Figure 6)
//	depth      TA list-read depth (Section 5.2's observation)
//	advisor    greedy vs LP index selection across disk budgets (Section 4)
//	drift      workload drift: re-planning recovers efficiency (Section 4)
//	winners    which method wins per query at small and large k
//	effectiveness  precision@10 vs planted topics (extension)
//	all        everything above
//
// Usage:
//
//	trexbench -exp all -scale 1.0
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"trex/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trexbench: ")
	exp := flag.String("exp", "all", "experiment to run (see doc comment)")
	scale := flag.Float64("scale", 1.0, "corpus scale factor (1.0 = 400 IEEE / 900 wiki docs)")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	flag.Parse()
	csvOut = *csvDir
	if csvOut != "" {
		if err := os.MkdirAll(csvOut, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	fmt.Printf("# TReX experiment suite — exp=%s scale=%.2f\n", *exp, *scale)
	pair, err := bench.NewEnvPair(*scale)
	if err != nil {
		log.Fatal(err)
	}
	defer pair.Close()
	fmt.Printf("# built ieee (%d docs) and wiki (%d docs) environments in %v\n\n",
		pair.IEEE.Docs, pair.Wiki.Docs, time.Since(start).Round(time.Millisecond))

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ok := false

	if run("summaries") {
		ok = true
		summaries(pair)
	}
	if run("sizes") {
		ok = true
		sizes(pair)
	}
	if run("table1") {
		ok = true
		table1(pair)
	}
	if run("fig4") {
		ok = true
		figure(pair, "Figure 4 (left): Query 202", "202")
		figure(pair, "Figure 4 (right): Query 203", "203")
	}
	if run("fig5") {
		ok = true
		figure(pair, "Figure 5 (left): Query 260", "260")
		figure(pair, "Figure 5 (right): Query 270", "270")
	}
	if run("fig6") {
		ok = true
		figure(pair, "Figure 6 (left): Query 233", "233")
		figure(pair, "Figure 6 (center): Query 290", "290")
		figure(pair, "Figure 6 (right): Query 292", "292")
	}
	if run("depth") {
		ok = true
		depth(pair)
	}
	if run("advisor") {
		ok = true
		advisor(pair)
	}
	if run("drift") {
		ok = true
		drift(pair)
	}
	if run("winners") {
		ok = true
		winners(pair)
	}
	if run("effectiveness") {
		ok = true
		effectiveness(pair)
	}
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	fmt.Printf("# total time: %v\n", time.Since(start).Round(time.Millisecond))
}

func summaries(pair *bench.EnvPair) {
	fmt.Println("## Summary sizes (Section 2.1, IEEE collection)")
	rows, err := bench.SummarySizes(pair.IEEE.Col)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %10s %12s %6s\n", "summary", "nodes", "paper-nodes", "safe")
	for _, r := range rows {
		fmt.Printf("%-16s %10d %12d %6v\n", r.Summary, r.Nodes, r.PaperNodes, r.Safe)
	}
	fmt.Println()
}

func sizes(pair *bench.EnvPair) {
	fmt.Println("## Base index sizes (Section 5.1)")
	rows, err := bench.Sizes(pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %8s %12s %14s %15s\n", "corpus", "docs", "corpus-MB", "Elements-MB", "PostingLists-MB")
	for _, r := range rows {
		fmt.Printf("%-6s %8d %12.2f %14.2f %15.2f\n",
			r.Collection, r.Docs, mb(r.CorpusBytes), mb(r.ElementsBytes), mb(r.PostingsBytes))
	}
	fmt.Println("# paper: ieee corpus 760 MB -> Elements 1.52 GB, PostingLists 8.05 GB")
	fmt.Println("# paper: wiki corpus 4.6 GB -> Elements 3.91 GB, PostingLists 48.1 GB")
	fmt.Println()
}

func mb(b int64) float64 { return float64(b) / 1e6 }

func table1(pair *bench.EnvPair) {
	fmt.Println("## Table 1: queries, translation sizes, answer counts")
	rows, err := bench.Table1(pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %-6s %6s %7s %9s | %6s %7s %9s\n",
		"id", "corpus", "#sids", "#terms", "#answers", "paper", "paper", "paper")
	for _, r := range rows {
		fmt.Printf("%-4s %-6s %6d %7d %9d | %6d %7d %9d\n",
			r.ID, r.Collection, r.NumSIDs, r.NumTerms, r.NumAnswers,
			r.PaperSIDs, r.PaperTerms, r.PaperAnswers)
	}
	fmt.Println()
}

func figure(pair *bench.EnvPair, title, id string) {
	q := bench.QueryByID(id)
	fmt.Printf("## %s\n", title)
	fmt.Printf("# %s\n# regime (paper): %s\n", q.NEXI, q.Regime)
	points, err := bench.Figure(pair, id, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %11s %11s %11s %11s %11s | %10s %10s %10s %10s %6s %6s\n",
		"k", "ERA", "TA", "ITA", "NRA", "Merge",
		"ERA-cost", "TA-cost", "NRA-cost", "Mrg-cost", "taDep", "nraDep")
	for _, p := range points {
		fmt.Printf("%8d %11s %11s %11s %11s %11s | %10.0f %10.0f %10.0f %10.0f %6.3f %6.3f\n",
			p.K, fmtDur(p.ERA), fmtDur(p.TA), fmtDur(p.ITA), fmtDur(p.NRA), fmtDur(p.Merge),
			p.ERACost, p.TACost, p.NRACost, p.MergeCost, p.DepthFraction, p.NRADepth)
	}
	writeFigureCSV(id, points)
	fmt.Println()
}

func fmtDur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

// csvOut, when non-empty, receives one CSV per figure for plotting.
var csvOut string

func writeFigureCSV(id string, points []bench.FigurePoint) {
	if csvOut == "" {
		return
	}
	f, err := os.Create(fmt.Sprintf("%s/figure-q%s.csv", csvOut, id))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	_ = w.Write([]string{"k", "era_ns", "ta_ns", "ita_ns", "nra_ns", "merge_ns",
		"era_cost", "ta_cost", "nra_cost", "merge_cost", "ta_depth", "nra_depth"})
	for _, p := range points {
		_ = w.Write([]string{
			strconv.Itoa(p.K),
			strconv.FormatInt(p.ERA.Nanoseconds(), 10),
			strconv.FormatInt(p.TA.Nanoseconds(), 10),
			strconv.FormatInt(p.ITA.Nanoseconds(), 10),
			strconv.FormatInt(p.NRA.Nanoseconds(), 10),
			strconv.FormatInt(p.Merge.Nanoseconds(), 10),
			strconv.FormatFloat(p.ERACost, 'f', 0, 64),
			strconv.FormatFloat(p.TACost, 'f', 0, 64),
			strconv.FormatFloat(p.NRACost, 'f', 0, 64),
			strconv.FormatFloat(p.MergeCost, 'f', 0, 64),
			strconv.FormatFloat(p.DepthFraction, 'f', 4, 64),
			strconv.FormatFloat(p.NRADepth, 'f', 4, 64),
		})
	}
}

func depth(pair *bench.EnvPair) {
	fmt.Println("## TA read depth (Section 5.2: full lists read for modest k)")
	rows, err := bench.Depth(pair, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s", "id")
	printed := map[string]bool{}
	var ids []string
	ks := map[int]bool{}
	for _, r := range rows {
		if !printed[r.ID] {
			printed[r.ID] = true
			ids = append(ids, r.ID)
		}
		ks[r.K] = true
	}
	var kList []int
	for k := range ks {
		kList = append(kList, k)
	}
	// small fixed sweep, keep input order from bench.Depth
	kList = []int{1, 10, 50, 1000}
	for _, k := range kList {
		fmt.Printf(" %8s", fmt.Sprintf("k=%d", k))
	}
	fmt.Println()
	for _, id := range ids {
		fmt.Printf("%-4s", id)
		for _, k := range kList {
			for _, r := range rows {
				if r.ID == id && r.K == k {
					fmt.Printf(" %8.3f", r.DepthFraction)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func advisor(pair *bench.EnvPair) {
	fmt.Println("## Self-managing index selection (Section 4): greedy vs LP")
	rows, err := bench.Advisor(pair, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %14s %14s %14s %8s\n", "budget", "greedy-saving", "lp-saving", "lp/greedy", "<=2?")
	for _, r := range rows {
		status := "ok"
		if r.Ratio > 2 {
			status = "FAIL"
		}
		fmt.Printf("%7.0f%% %14.0f %14.0f %14.3f %8s\n",
			r.BudgetFraction*100, r.GreedySaving, r.LPSaving, r.Ratio, status)
	}
	fmt.Println()
	bench.PrintTheorem42(os.Stdout, rows)
	fmt.Println()
}

func drift(pair *bench.EnvPair) {
	fmt.Println("## Workload drift: re-planning recovers efficiency (Section 4)")
	rows, err := bench.Drift(pair, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %14s %14s %12s\n", "phase", "stale-plan", "re-planned", "improvement")
	for _, r := range rows {
		fmt.Printf("%-22s %14.0f %14.0f %11.2fx\n",
			r.Phase, r.CostStale, r.CostReplanned, r.Improvement)
	}
	fmt.Println()
}

func winners(pair *bench.EnvPair) {
	fmt.Println("## Method winners per query (no single strategy dominates)")
	rows, err := bench.Winners(pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %12s %12s %20s %10s\n", "id", "k=1 winner", "k=5000 winner", "ERA beaten by", "crossover")
	for _, r := range rows {
		fmt.Printf("%-4s %12s %12s %20s %10v\n",
			r.ID, r.SmallKWinner, r.LargeKWinner, strings.Join(r.ERABeatenBy, "+"), r.CrossoverPresent)
	}
	fmt.Println()
}

func effectiveness(pair *bench.EnvPair) {
	fmt.Println("## Effectiveness (extension): precision@10 vs planted ground truth")
	rows, err := bench.Effectiveness(pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %-14s %8s %10s\n", "id", "topic", "P@10", "random")
	for _, r := range rows {
		fmt.Printf("%-4s %-14s %8.2f %10.2f\n", r.ID, r.Topic, r.PrecisionAt10, r.RandomBaseline)
	}
	fmt.Println()
}
