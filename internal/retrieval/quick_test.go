package retrieval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/storage"
	"trex/internal/summary"
)

// genRandomCollection builds a small random corpus: random nesting over a
// tag alphabet, text drawn from a tiny vocabulary so term overlaps and
// score ties are frequent (the adversarial case for top-k agreement).
func genRandomCollection(rng *rand.Rand, docs int) *corpus.Collection {
	tags := []string{"r", "s", "t", "u"}
	words := []string{"ax", "bx", "cx", "dx", "ex"}
	col := &corpus.Collection{}
	for d := 0; d < docs; d++ {
		var sb strings.Builder
		var emit func(depth int)
		emit = func(depth int) {
			tag := tags[rng.Intn(len(tags))]
			sb.WriteString("<" + tag + ">")
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				sb.WriteString(words[rng.Intn(len(words))] + " ")
			}
			if depth < 3 {
				for i := rng.Intn(3); i > 0; i-- {
					emit(depth + 1)
					sb.WriteString(words[rng.Intn(len(words))] + " ")
				}
			}
			sb.WriteString("</" + tag + ">")
		}
		sb.WriteString("<doc>")
		emit(0)
		sb.WriteString("</doc>")
		col.Docs = append(col.Docs, corpus.Document{ID: d, Data: []byte(sb.String())})
	}
	return col
}

// TestQuickAllMethodsAgreeOnRandomCorpora is the cross-method agreement
// property under adversarial conditions: tiny vocabulary (many exact
// score ties), random sid subsets, random term subsets, random k.
func TestQuickAllMethodsAgreeOnRandomCorpora(t *testing.T) {
	rng := rand.New(rand.NewSource(20071))
	for trial := 0; trial < 25; trial++ {
		col := genRandomCollection(rng, 3+rng.Intn(6))
		sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
		if err != nil {
			t.Fatal(err)
		}
		db := storage.OpenMemory()
		st, err := index.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := index.BuildBase(st, col, sum); err != nil {
			t.Fatal(err)
		}
		// Random sid subset (always non-empty).
		var sids []uint32
		for _, n := range sum.Nodes {
			if rng.Intn(2) == 0 {
				sids = append(sids, uint32(n.SID))
			}
		}
		if len(sids) == 0 {
			sids = []uint32{1}
		}
		// Random term subset.
		allWords := []string{"ax", "bx", "cx", "dx", "ex"}
		var terms []string
		for _, w := range allWords {
			if rng.Intn(2) == 0 {
				terms = append(terms, w)
			}
		}
		if len(terms) == 0 {
			terms = []string{"ax"}
		}
		sc, err := st.NewScorer(terms)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 7, 1000} {
			era, _, err := ExhaustiveTopKCtx(context.Background(), st, sids, terms, sc, k)
			if err != nil {
				t.Fatal(err)
			}
			ta, _, err := TACtx(context.Background(), st, sids, terms, sc, k)
			if err != nil {
				t.Fatal(err)
			}
			nra, _, err := NRACtx(context.Background(), st, sids, terms, k)
			if err != nil {
				t.Fatal(err)
			}
			mrg, _, err := MergeCtx(context.Background(), st, sids, terms, k)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]Scored{"ta": ta, "nra": nra, "merge": mrg} {
				if len(got) != len(era) {
					t.Fatalf("trial %d k=%d: %s returned %d, era %d (sids=%v terms=%v)",
						trial, k, name, len(got), len(era), sids, terms)
				}
				for i := range era {
					if era[i].Elem != got[i].Elem || !close2(era[i].Score, got[i].Score) {
						t.Fatalf("trial %d k=%d rank %d: %s %v/%f vs era %v/%f",
							trial, k, i, name, got[i].Elem, got[i].Score, era[i].Elem, era[i].Score)
					}
				}
			}
		}
		db.Close()
	}
}

func close2(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestQuickMaterializeIdempotent: re-materializing the same clause leaves
// the lists unchanged (Put overwrites are byte-identical).
func TestQuickMaterializeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	col := genRandomCollection(rng, 6)
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.OpenMemory()
	defer db.Close()
	st, err := index.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		t.Fatal(err)
	}
	sids := []uint32{1, 2, 3}
	terms := []string{"ax", "bx"}
	sc, err := st.NewScorer(terms)
	if err != nil {
		t.Fatal(err)
	}
	ms1, err := Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL)
	if err != nil {
		t.Fatal(err)
	}
	rows1, err := st.RPLs.Len()
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := st.RPLs.Len()
	if err != nil {
		t.Fatal(err)
	}
	if rows1 != rows2 {
		t.Fatalf("row count changed: %d -> %d", rows1, rows2)
	}
	if ms1.RPLEntries != ms2.RPLEntries {
		t.Fatalf("entry counts differ: %+v vs %+v", ms1, ms2)
	}
}
