// Command trexquery evaluates a NEXI query against a TReX database.
//
// Usage:
//
//	trexquery -db ./ieee.trexdb -k 10 '//article[about(., xml)]//sec[about(., retrieval)]'
//	trexquery -db ./ieee.trexdb -method merge -materialize -k 10 '...'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"trex"
	"trex/internal/index"
	"trex/internal/jsoncorpus"
	"trex/internal/nexi"
)

// runTopics evaluates every parseable topic from an INEX-style topics file.
func runTopics(eng *trex.Engine, path string, k int) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	topics, err := nexi.ParseTopics(data)
	if err != nil {
		log.Fatal(err)
	}
	for _, tp := range topics {
		if tp.Err != nil {
			fmt.Printf("topic %s: SKIP (%v)\n", tp.ID, tp.Err)
			continue
		}
		res, err := eng.Query(tp.Raw, k, trex.MethodAuto)
		if err != nil {
			fmt.Printf("topic %s: ERROR (%v)\n", tp.ID, err)
			continue
		}
		fmt.Printf("topic %-5s method=%-5s sids=%-4d terms=%-3d answers=%d\n",
			tp.ID, res.Method, res.Translation.NumSIDs(), res.Translation.NumTerms(), res.TotalAnswers)
		for i, a := range res.Answers {
			fmt.Printf("  %2d. %8.4f doc=%-5d %s\n", i+1, a.Score, a.Doc, a.Path)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("trexquery: ")
	dbPath := flag.String("db", "", "TReX database file (required)")
	k := flag.Int("k", 10, "number of answers (0 = all)")
	method := flag.String("method", "auto", "retrieval method: auto, era, ta, nra, merge")
	materialize := flag.Bool("materialize", false, "build the query's RPLs and ERPLs first")
	showStats := flag.Bool("stats", false, "print retrieval statistics")
	explain := flag.Bool("explain", false, "print the evaluation plan instead of running the query")
	topicsPath := flag.String("topics", "", "run every castitle from an INEX-style topics file instead of a single query")
	lang := flag.String("lang", "nexi", "query language: nexi, or jsonpath (JSON corpora; translated onto NEXI)")
	flag.Parse()
	if *dbPath == "" || (*topicsPath == "" && flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}

	eng, err := trex.Open(*dbPath, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	if *topicsPath != "" {
		runTopics(eng, *topicsPath, *k)
		return
	}
	query := flag.Arg(0)
	switch *lang {
	case "", "nexi":
	case "jsonpath":
		query, err = jsoncorpus.JSONPathToNEXI(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("jsonpath -> %s\n", query)
	default:
		log.Fatalf("unknown query language %q (want nexi or jsonpath)", *lang)
	}

	if *materialize {
		if _, err := eng.Materialize(query, index.KindRPL, index.KindERPL); err != nil {
			log.Fatal(err)
		}
	}
	if *explain {
		ex, err := eng.Explain(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ex.String())
		return
	}
	m, err := trex.ParseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(query, *k, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:   %s\n", query)
	fmt.Printf("method:  %s   translation: %d sids, %d terms   answers: %d\n",
		res.Method, res.Translation.NumSIDs(), res.Translation.NumTerms(), res.TotalAnswers)
	for i, a := range res.Answers {
		fmt.Printf("%3d. score=%8.4f doc=%-5d span=[%d,%d) %s\n",
			i+1, a.Score, a.Doc, a.Start, a.End, a.Path)
	}
	if *showStats {
		s := res.Stats
		fmt.Printf("stats: elapsed=%v heap=%v sorted=%d skipped=%d random=%d positions=%d elements=%d depth=%.3f\n",
			s.Elapsed, s.HeapTime, s.SortedAccesses, s.SkippedBySID,
			s.RandomAccesses, s.PositionsScanned, s.ElementsScanned, s.DepthFraction())
	}
}
