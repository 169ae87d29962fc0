package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// defaultSeed is the seed every recorded number uses; heldOutSeed is the
// one a performance claim must also hold on (see README, seed policy).
const (
	defaultSeed = 20070415
	heldOutSeed = 19990606
)

// ks is the paper's k ladder.
var paperKs = []int{1, 10, 100, 1000}

// gridQuery is one (query, universe) row of a workload's method grid.
type gridQuery struct {
	id     string
	corpus int // index into spec.corpora
	nexi   string
}

// paperQueries are the seven queries of the paper's Table 1, with the
// topic words the synthetic collections plant for them.
var paperQueries = []gridQuery{
	{"202", 0, `//article[about(., ontologies)]//sec[about(., ontologies case study)]`},
	{"203", 0, `//sec[about(., code signing verification)]`},
	{"233", 0, `//article[about(.//bdy, synthesizers) and about(.//bdy, music)]`},
	{"260", 0, `//bdy//*[about(., model checking state space explosion)]`},
	{"270", 0, `//article//sec[about(., introduction information retrieval)]`},
	{"290", 1, `//article[about(., "genetic algorithm")]`},
	{"292", 1, `//article//figure[about(., renaissance painting italian flemish -french -german)]`},
}

// jsonPaths are the eight JSONPath queries of the ingest workload, over
// the API-log shape the JSON generator emits.
var jsonPaths = []string{
	`$..message[?(about(@, timeout connection))]`,
	`$.response[?(about(@.detail, payment declined))]`,
	`$.annotations[*].note[?(about(@, deploy canary))]`,
	`$..message[?(about(@, quota exceeded))]`,
	`$.request.params.query[?(about(@, rollback deploy))]`,
	`$..detail[?(about(@, refused connection timeout))]`,
	`$..note[?(about(@, retry payment))]`,
	`$..response[?(about(@.detail, throttle) and about(@.detail, quota))]`,
}

// corpusSpec sizes one generated universe.
type corpusSpec struct {
	universe string
	docs     int
	// poolTopics plants the serve pool's own topics beside the style's.
	poolTopics bool
}

// spec is one workload at one scale. Every workload runs the same three
// measured phases — method grid, serve loop, write cycles — on its own
// database regime; the counts say where its time goes.
type spec struct {
	name    string
	corpora []corpusSpec
	// cacheFraction sizes the page cache as a share of the database's
	// pages; 0 means larger than the database.
	cacheFraction float64
	frontDoor     bool
	http          bool
	// halfBudget chooses the lists by SelfManage at half the workload's
	// full footprint instead of materializing everything.
	halfBudget bool

	grid     []gridQuery
	ks       []int
	gridReps int

	// Serve loop. poolSize > 0 draws requests Zipf(1.0) from a generated
	// pool; otherwise the grid's (query, k) pairs are asked round-robin. openRate > 0 adds an open-loop stage at that many requests
	// per second.
	poolSize       int
	hotQueries     int
	closedRequests int
	openRequests   int
	openRate       float64
	clients        int

	// Write cycles of batch documents each, on corpora[0]. With
	// readerBesideWriter the serve loop runs until the writer ends
	// instead of for closedRequests.
	cycles             int
	batch              int
	readerBesideWriter bool
	// writerThink is how long the writer rests between cycles; the
	// writer's wall time counts only the cycles.
	writerThink time.Duration

	setupReps int
}

// openLoopRate, in requests per second, is pinned at about a third of
// what serve_http sustained in its open-loop configuration (one of the two
// shared cores goes to the dispatcher) on the box where the benchmark
// landed; it is part of the workload and is never re-tuned.
const openLoopRate = 1500

func specFor(name string, smoke bool) (spec, error) {
	var s spec
	switch name {
	case "paper_grid":
		s = spec{
			corpora: []corpusSpec{{universe: "ieee", docs: 1500}, {universe: "wiki", docs: 3000}},
			grid:    paperQueries, ks: paperKs, gridReps: 10,
			closedRequests: 3000, clients: 1,
			cycles: 16, batch: 8,
		}
	case "cold_base":
		s = spec{
			corpora:       []corpusSpec{{universe: "ieee", docs: 1500}},
			cacheFraction: 0.02,
			grid:          paperQueries[:5], ks: []int{10, 1000}, gridReps: 14,
			closedRequests: 2000, clients: 1,
			cycles: 6, batch: 8,
		}
	case "serve_http":
		s = spec{
			corpora:   []corpusSpec{{universe: "ieee", docs: 800, poolTopics: true}},
			frontDoor: true, http: true, halfBudget: true,
			grid: paperQueries[:5], ks: []int{10, 100}, gridReps: 15,
			poolSize: 2000, hotQueries: 256,
			closedRequests: 24000, openRequests: 27000, openRate: openLoopRate, clients: 2,
			cycles: 10, batch: 8,
		}
	case "ingest_mixed":
		s = spec{
			corpora:   []corpusSpec{{universe: "json", docs: 10000}},
			frontDoor: true,
			ks:        []int{10, 100}, gridReps: 15,
			clients: 1,
			cycles:  70, batch: 48, readerBesideWriter: true, writerThink: 100 * time.Millisecond,
		}
		for i, p := range jsonPaths {
			n, err := jsonPathToNEXI(p)
			if err != nil {
				return s, err
			}
			s.grid = append(s.grid, gridQuery{id: fmt.Sprintf("j%d", i+1), nexi: n})
		}
	default:
		return s, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.name = name
	s.setupReps = 3
	if smoke {
		for i := range s.corpora {
			s.corpora[i].docs /= 25
		}
		s.gridReps = 2
		s.poolSize /= 20
		s.hotQueries /= 16
		s.closedRequests /= 100
		s.openRequests /= 100
		if s.cycles > 4 {
			s.cycles = 4
		}
	}
	return s, nil
}

var workloadNames = []string{"paper_grid", "cold_base", "serve_http", "ingest_mixed"}

// scaled multiplies the repeat counts by f (= -seconds over the
// benchmark's run_seconds), so a run measures for about -seconds while
// the counts for a given -seconds stay exact.
func (s spec) scaled(f float64) spec {
	mul := func(n int) int {
		if n == 0 {
			return 0
		}
		return int(math.Max(1, math.Round(float64(n)*f)))
	}
	s.gridReps = mul(s.gridReps)
	s.closedRequests = mul(s.closedRequests)
	s.openRequests = mul(s.openRequests)
	s.cycles = mul(s.cycles)
	return s
}

// ------------------------------------------------------------ serve pool

// poolTopicCount topics, with document fractions log-spaced over
// 0.2 %..30 %, are planted for the serve pool.
const poolTopicCount = 42

func poolTopics() []topic {
	ts := make([]topic, poolTopicCount)
	for i := range ts {
		frac := 0.002 * math.Pow(0.30/0.002, float64(i)/float64(poolTopicCount-1))
		w := fmt.Sprintf("bq%02d", i)
		ts[i] = topic{Name: w, Words: []string{w + "a", w + "b", w + "c"}, DocFraction: frac, Density: 0.25}
	}
	return ts
}

// poolTemplates are NEXI shapes over the IEEE-style structure; %s takes
// a term list.
var poolTemplates = []string{
	`//article//sec[about(., %s)]`,
	`//sec[about(., %s)]`,
	`//article//p[about(., %s)]`,
	`//bdy//sec//p[about(., %s)]`,
	`//article//fig[about(., %s)]`,
	`//article//st[about(., %s)]`,
	`//bm//sec[about(., %s)]`,
	`//article//abs[about(., %s)]`,
}

// request is one thing the serve loop asks, of collection `corpus`.
type request struct {
	nexi   string
	k      int
	corpus int
}

// buildPool makes up to size distinct (NEXI, k) pairs — templates ×
// planted topics × word subsets, k = 10 for four in five and 100 for
// the rest — in a shuffled order, which is also their popularity rank.
// The pool is part of the workload, like the paper's seven queries, and
// does not depend on the run's seed; the collection it is asked of and
// the order and times of the requests do.
func buildPool(size int) []request {
	rng := rand.New(rand.NewSource(defaultSeed))
	var all []request
	for _, t := range poolTopics() {
		w := t.Words
		subsets := []string{
			w[0], w[1], w[2],
			w[0] + " " + w[1], w[1] + " " + w[2], w[0] + " " + w[1] + " " + w[2],
		}
		for _, tmpl := range poolTemplates {
			for _, sub := range subsets {
				k := 10
				if rng.Intn(5) == 0 {
					k = 100
				}
				all = append(all, request{nexi: fmt.Sprintf(tmpl, sub), k: k})
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if size < len(all) {
		all = all[:size]
	}
	return all
}

// zipfSequence draws n indexes below size with P(i) ∝ 1/(i+1), by
// systematic sampling: the n draws are evenly spaced over the cumulative
// distribution from a seeded offset and then shuffled, so every seed asks
// each request its expected number of times (give or take one) and the
// seeds differ in the order — which decides what the result cache still
// holds — not in how many expensive requests the draw happened to hold.
func zipfSequence(n, size int, rng *rand.Rand) []int {
	cum := make([]float64, size)
	var sum float64
	for i := range cum {
		sum += 1 / float64(i+1)
		cum[i] = sum
	}
	offset := rng.Float64()
	seq := make([]int, n)
	for i := range seq {
		seq[i] = min(size-1, sort.SearchFloat64s(cum, (float64(i)+offset)/float64(n)*sum))
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// roundRobin visits the requests in order, over and over: n of them, or
// one full round when n is 0 (the reader beside a writer cycles through
// it).
func roundRobin(n, size int) []int {
	if n == 0 {
		n = size
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i % size
	}
	return seq
}

// plantedTerm occurs only in the last streamed document, which the
// run must be able to retrieve after the final commit and after reopen.
const plantedTerm = "zzplantedmarker"

func plantedDoc(universe string) ([]byte, string) {
	if universe == "json" {
		return []byte(`{"event":"service planted event","message":"` + plantedTerm + ` final batch"}`),
			`//message[about(., ` + plantedTerm + `)]`
	}
	return []byte(`<article><fm><atl>planted</atl></fm><bdy><sec><st>planted</st><p>` + plantedTerm +
		` final batch</p></sec></bdy></article>`), `//article//sec[about(., ` + plantedTerm + `)]`
}
