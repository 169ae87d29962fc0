package retrieval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/summary"
)

// fuzzStore is the collection FuzzStrategiesAgree draws its clauses
// from, every list of every (word, sid) pair built: random documents
// over a tiny vocabulary (many exact score ties), plus a run of 300 v
// elements holding only "ax" but for two — a single-term run Merge drains
// across block boundaries — and e elements holding none of the words, a
// sid whose lists are all empty.
type fuzzStoreT struct {
	store *index.Store
	sids  []uint32 // every summary sid; sids[0] is v's, sids[1] is e's
	words []string
	sc    *score.Scorer
}

var (
	fuzzOnce sync.Once
	fuzzE    *fuzzStoreT
	fuzzErr  error
)

func fuzzStore(t testing.TB) *fuzzStoreT {
	t.Helper()
	fuzzOnce.Do(func() { fuzzE, fuzzErr = buildFuzzStore() })
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzE
}

func buildFuzzStore() (*fuzzStoreT, error) {
	col := genRandomCollection(rand.New(rand.NewSource(42)), 40)
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 300; i++ {
		if i == 150 || i == 290 {
			sb.WriteString("<v>bx ax</v>")
		} else {
			sb.WriteString("<v>ax</v>")
		}
	}
	sb.WriteString("<e>zz</e><e>zz yy</e></doc>")
	col.Docs = append(col.Docs, corpus.Document{ID: len(col.Docs), Data: []byte(sb.String())})
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		return nil, err
	}
	st, err := index.Open(storage.OpenMemory())
	if err != nil {
		return nil, err
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		return nil, err
	}
	f := &fuzzStoreT{store: st, words: []string{"ax", "bx", "cx", "dx", "ex"}}
	var rest []uint32
	for _, n := range sum.Nodes {
		switch n.Label {
		case "v":
			f.sids = append([]uint32{uint32(n.SID)}, f.sids...)
		case "e":
			f.sids = append(f.sids, uint32(n.SID))
		default:
			rest = append(rest, uint32(n.SID))
		}
	}
	if len(f.sids) != 2 {
		return nil, fmt.Errorf("fuzz store: want one v and one e sid, have %v", f.sids)
	}
	f.sids = append(f.sids, rest...)
	if f.sc, err = st.NewScorer(f.words); err != nil {
		return nil, err
	}
	sorted := slices.Clone(f.sids)
	slices.Sort(sorted)
	if _, err := Materialize(st, sorted, f.words, f.sc, index.KindRPL, index.KindERPL); err != nil {
		return nil, err
	}
	return f, nil
}

// FuzzStrategiesAgree draws a clause — a sid subset, a term subset, a k
// that may be zero or negative — over fuzzStore and asserts that ERA, TA,
// NRA and Merge return the same ranking at k > 0 and the same multiset of
// answers at k <= 0, scores bit-identical. A sid outside the summary and
// the empty e sid may be in the subset. With cut > 0, Merge and TA also
// run under a deadline that expires after cut polls: a run it cuts short
// is Approximate and returns only exact answers (k of them at most, in
// SortScored order, when k > 0); a run it does not cut returns the full
// result.
func FuzzStrategiesAgree(f *testing.F) {
	f.Add(uint64(1)<<63-1, uint8(0x1f), int8(0), uint8(0))
	f.Add(uint64(1), uint8(0x03), int8(0), uint8(0)) // the v run alone: drained across blocks
	f.Add(uint64(1), uint8(0x01), int8(5), uint8(1)) // one term, one sid, cut after one poll
	f.Add(uint64(2), uint8(0x1f), int8(3), uint8(0)) // the empty e sid alone
	f.Add(uint64(0x8000000000000007), uint8(0x07), int8(-1), uint8(2))
	f.Add(uint64(0xff0f), uint8(0x16), int8(10), uint8(3))
	f.Add(uint64(1)<<63-1, uint8(0x1f), int8(1), uint8(0))
	f.Fuzz(func(t *testing.T, sidMask uint64, termMask uint8, k8 int8, cut uint8) {
		fs := fuzzStore(t)
		var sids []uint32
		for i, sid := range fs.sids {
			if i < 63 && sidMask&(1<<i) != 0 {
				sids = append(sids, sid)
			}
		}
		if sidMask&(1<<63) != 0 {
			sids = append(sids, 9999) // no element carries it
		}
		var terms []string
		for j, w := range fs.words {
			if termMask&(1<<j) != 0 {
				terms = append(terms, w)
			}
		}
		slices.Sort(sids)
		k := int(k8)
		ctx := context.Background()
		era, _, err := ExhaustiveTopKCtx(ctx, fs.store, sids, terms, fs.sc, k)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]func(context.Context) ([]Scored, *Stats, error){
			"TA": func(ctx context.Context) ([]Scored, *Stats, error) {
				return TACtx(ctx, fs.store, sids, terms, fs.sc, k)
			},
			"NRA":   func(ctx context.Context) ([]Scored, *Stats, error) { return NRACtx(ctx, fs.store, sids, terms, k) },
			"Merge": func(ctx context.Context) ([]Scored, *Stats, error) { return MergeCtx(ctx, fs.store, sids, terms, k) },
		}
		want := canonical(k, era)
		for name, run := range runs {
			got, _, err := run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffScored(want, canonical(k, got)); d != "" {
				t.Fatalf("sids %v terms %v k=%d: %s differs from ERA: %s", sids, terms, k, name, d)
			}
		}
		if cut == 0 {
			return
		}
		full := make(map[index.Element]float64, len(era))
		all := era
		if k > 0 {
			if all, _, err = ExhaustiveTopKCtx(ctx, fs.store, sids, terms, fs.sc, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range all {
			full[s.Elem] = s.Score
		}
		for _, name := range []string{"Merge", "TA"} {
			got, stats, err := runs[name](expireAfter(int(cut % 16)))
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Approximate {
				if d := diffScored(want, canonical(k, got)); d != "" {
					t.Fatalf("sids %v terms %v k=%d: %s uncut by a deadline differs from ERA: %s", sids, terms, k, name, d)
				}
				continue
			}
			for _, s := range got {
				if score, ok := full[s.Elem]; !ok || score != s.Score {
					t.Fatalf("sids %v terms %v k=%d: %s cut short returned %v score %v, not an answer", sids, terms, k, name, s.Elem, s.Score)
				}
			}
			if k > 0 && (len(got) > k || !slices.IsSortedFunc(got, compareScored)) {
				t.Fatalf("sids %v terms %v k=%d: %s cut short returned %d answers, ranked: %v", sids, terms, k, name, len(got), slices.IsSortedFunc(got, compareScored))
			}
		}
	})
}

// canonical returns a result of a run at k as a ranking: as it stands
// for k > 0, a sorted copy for k <= 0, whose order nothing promises.
func canonical(k int, s []Scored) []Scored {
	if k > 0 {
		return s
	}
	s = slices.Clone(s)
	SortScored(s)
	return s
}

// diffScored reports the first difference between two rankings, "" when
// they hold the same elements with bit-identical scores in the same order.
func diffScored(want, got []Scored) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("rank %d: %v score %v, want %v score %v", i, got[i].Elem, got[i].Score, want[i].Elem, want[i].Score)
		}
	}
	return ""
}
