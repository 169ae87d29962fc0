package retrieval

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/oracle/gen"
)

// referenceTermMerge is a term's ERPL merged across sids into one
// position-ordered list, the first step of the paper's two-step Merge —
// one ERPLIterator per sid under container/heap — drained to the end.
func referenceTermMerge(t *testing.T, st *index.Store, term string, sids []uint32) []index.RPLEntry {
	t.Helper()
	var h refERPLHeap
	for _, sid := range sids {
		it := index.NewERPLIterator(st, term, sid)
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			h = append(h, refERPLStream{head: e, it: it})
		}
	}
	heap.Init(&h)
	var out []index.RPLEntry
	for h.Len() > 0 {
		out = append(out, h[0].head)
		e, ok, err := h[0].it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			h[0].head = e
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

type refERPLStream struct {
	head index.RPLEntry
	it   *index.ERPLIterator
}

type refERPLHeap []refERPLStream

func (h refERPLHeap) Len() int { return len(h) }
func (h refERPLHeap) Less(i, j int) bool {
	return index.CompareDocEnd(h[i].head.Doc, h[i].head.End, h[j].head.Doc, h[j].head.End) < 0
}
func (h refERPLHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refERPLHeap) Push(x any)   { *h = append(*h, x.(refERPLStream)) }
func (h *refERPLHeap) Pop() any {
	old := *h
	out := old[len(old)-1]
	*h = old[:len(old)-1]
	return out
}

// writeERPLs scores every ERA row of (sids, terms) and writes the ERPLs as
// blocks, each (term, sid) list in one run as Materialize writes it: the
// lists of half the pairs through the bulk loader into the empty tree, the
// rest put beside them afterwards. It returns the ERA rows.
func writeERPLs(t *testing.T, st *index.Store, sids []uint32, terms []string, score func(term, tf, length int) float64) []ElementTF {
	t.Helper()
	rows, _, err := ERACtx(context.Background(), st, sids, terms)
	if err != nil {
		t.Fatal(err)
	}
	var batches [2][]index.ListRow
	for j, term := range terms {
		var entries [2][]index.RPLEntry
		for _, r := range rows {
			if r.TF[j] == 0 {
				continue
			}
			e := index.RPLEntry{
				Score: score(j, r.TF[j], int(r.Elem.Length)),
				SID:   r.Elem.SID, Doc: r.Elem.Doc, End: r.Elem.End, Length: r.Elem.Length,
			}
			b := (j + int(e.SID)) % 2
			entries[b] = append(entries[b], e)
		}
		for b := range batches {
			batches[b] = append(batches[b], index.EncodeERPLBlocks(term, entries[b])...)
		}
	}
	for _, rows := range batches {
		if err := st.WriteListRows(index.KindERPL, rows); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// genUniverses are the generated corpora the pass is checked on: XML and
// JSON, every sid of the summary available at once.
func genUniverses(t *testing.T, each func(t *testing.T, e *env, all []uint32, terms []string)) {
	ids := make([]int, 600)
	for i := range ids {
		ids[i] = i
	}
	for _, u := range []struct {
		name  string
		col   *corpus.Collection
		terms []string
	}{
		{"xml", gen.Collection(7, ids[:120]), gen.Words},
		{"json", gen.JSONCollection(7, ids), nil},
	} {
		t.Run(u.name, func(t *testing.T) {
			e := newEnv(t, u.col)
			var all []uint32
			for _, n := range e.sum.Nodes {
				all = append(all, uint32(n.SID))
			}
			terms := u.terms
			if terms == nil {
				terms = frequentTerms(t, e.store, 6)
			}
			each(t, e, all, terms)
		})
	}
}

// TestTermERPLMatchesReferenceMerge reads a term's ERPL sid by sid, as
// Merge does — one ERPLIterator, Reset onto each (term, sid) segment in
// turn — and drives its Next, DrainBelow, SkipTo and Peek in random order
// against the cross-sid reference merge cut to that sid: every sid at
// once, random subsets in random order, a sid with an empty extent, a
// term without a list.
func TestTermERPLMatchesReferenceMerge(t *testing.T) {
	genUniverses(t, func(t *testing.T, e *env, all []uint32, terms []string) {
		writeERPLs(t, e.store, all, terms, func(_, tf, length int) float64 { return float64(tf) / float64(length) })
		empty := uint32(len(all) + 50) // no element carries it
		rng := rand.New(rand.NewSource(13))
		entries := 0
		var it index.ERPLIterator // reused across every case and sid
		for c := 0; c < 60; c++ {
			var sids []uint32
			switch c {
			case 0:
				sids = all
			case 1:
				sids = []uint32{empty}
			default:
				for _, s := range all {
					if rng.Intn(3) == 0 {
						sids = append(sids, s)
					}
				}
				if c%4 == 0 {
					sids = append(sids, empty)
				}
				rng.Shuffle(len(sids), func(i, j int) { sids[i], sids[j] = sids[j], sids[i] })
			}
			term := terms[rng.Intn(len(terms))]
			if c%7 == 3 {
				term = "nosuchterm"
			}
			merged := referenceTermMerge(t, e.store, term, sids)
			entries += len(merged)
			for _, sid := range sids {
				var want []index.RPLEntry
				for _, x := range merged {
					if x.SID == sid {
						want = append(want, x)
					}
				}
				it.Reset(e.store, term, sid)
				checkERPLWalk(t, rng, &it, want, fmt.Sprintf("case %d term %s sid %d", c, term, sid))
			}
		}
		if entries < 2000 {
			t.Fatalf("fixture: the cases merged %d entries in all", entries)
		}
	})
}

// checkERPLWalk drives it through a random mix of Next, DrainBelow and
// SkipTo until it has passed every entry of want, checking each step and
// the Peek after it.
func checkERPLWalk(t *testing.T, rng *rand.Rand, it *index.ERPLIterator, want []index.RPLEntry, label string) {
	t.Helper()
	p := 0 // want[p:] is what the iterator has yet to return
	// ahead picks a (doc, end) at or a little past a random entry still
	// to come, so bounds fall on entries and between them.
	ahead := func() (uint32, uint32) {
		if p >= len(want) {
			return 1 << 30, 0
		}
		x := want[p+rng.Intn(min(len(want)-p, 300))]
		return x.Doc, x.End + uint32(rng.Intn(2))
	}
	below := func(doc, end uint32) int {
		q := p
		for q < len(want) && index.CompareDocEnd(want[q].Doc, want[q].End, doc, end) < 0 {
			q++
		}
		return q
	}
	for p < len(want) || rng.Intn(4) != 0 {
		switch rng.Intn(4) {
		case 0:
			for i := rng.Intn(40); i >= 0; i-- {
				got, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ok != (p < len(want)) || (ok && got != want[p]) {
					t.Fatalf("%s: Next at %d = %+v, %v", label, p, got, ok)
				}
				if ok {
					p++
				}
			}
		case 1:
			doc, end := ahead()
			q := below(doc, end)
			got, err := it.DrainBelow(doc, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != q-p || (q > p && !reflect.DeepEqual(got, want[p:q])) {
				t.Fatalf("%s: DrainBelow(%d, %d) at %d returned %d entries, want %d", label, doc, end, p, len(got), q-p)
			}
			p = q
		case 2:
			doc, end := ahead()
			q := below(doc, end)
			skipped, err := it.SkipTo(doc, end)
			if err != nil {
				t.Fatal(err)
			}
			if skipped > q-p {
				t.Fatalf("%s: SkipTo(%d, %d) at %d skipped %d undecoded entries of %d passed", label, doc, end, p, skipped, q-p)
			}
			p = q
		}
		head, ok, err := it.Peek()
		if err != nil {
			t.Fatal(err)
		}
		if ok != (p < len(want)) || (ok && head != want[p]) {
			t.Fatalf("%s: Peek at %d = %+v, %v", label, p, head, ok)
		}
	}
}

// referenceRanking is the ranking Merge must return, computed from ERA's
// rows: per-term scores summed in term order, sorted through sort.Slice
// with SortScored's order written out.
func referenceRanking(rows []ElementTF, score func(term, tf, length int) float64) []Scored {
	var out []Scored
	for _, r := range rows {
		var total float64
		for j, tf := range r.TF {
			if tf != 0 {
				total += score(j, tf, int(r.Elem.Length))
			}
		}
		out = append(out, Scored{Elem: r.Elem, Score: total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Elem.Doc != out[j].Elem.Doc {
			return out[i].Elem.Doc < out[j].Elem.Doc
		}
		return out[i].Elem.End < out[j].Elem.End
	})
	return out
}

// TestMergeSelectsSortedPrefix: Merge's answers are the first k of the
// reference ranking at the edges of the bounded selection (k = 1, 2, n-1)
// and past it (k = n, n+1), and the reference ranking's answers in some
// order at k = 0 and -1, on lists whose scores are small integers so that
// most of the order is the (doc, end) tie-break; and under a deadline at
// every poll point of the sweep the k answers are the first k of what the
// same truncated sweep returns in full, ranked.
func TestMergeSelectsSortedPrefix(t *testing.T) {
	genUniverses(t, func(t *testing.T, e *env, all []uint32, terms []string) {
		tfScore := func(_, tf, _ int) float64 { return float64(tf) }
		want := referenceRanking(writeERPLs(t, e.store, all, terms, tfScore), tfScore)
		n := len(want)
		ties := 0
		for i := 1; i < n; i++ {
			if want[i].Score == want[i-1].Score {
				ties++
			}
		}
		if n < 200 || ties < n/2 {
			t.Fatalf("fixture: %d answers, %d score ties", n, ties)
		}
		ks := []int{1, 2, n - 1, n, n + 1, 0, -1}
		for _, k := range ks {
			got, stats, err := MergeCtx(context.Background(), e.store, all, terms, k)
			if err != nil {
				t.Fatal(err)
			}
			prefix := want
			if k > 0 && k < n {
				prefix = want[:k]
			}
			if k <= 0 {
				SortScored(got)
			}
			if !reflect.DeepEqual(got, prefix) {
				t.Fatalf("k=%d: %d answers differ from the first %d of the reference ranking", k, len(got), len(prefix))
			}
			if stats.HeapOps != 0 || stats.Answers != n || stats.Approximate || stats.DepthFraction() != 1 {
				t.Fatalf("k=%d: HeapOps %d Answers %d Approximate %v depth %v, want 0, %d, false, 1",
					k, stats.HeapOps, stats.Answers, stats.Approximate, stats.DepthFraction(), n)
			}
		}
		_, full, err := MergeCtx(context.Background(), e.store, all, terms, 0)
		if err != nil {
			t.Fatal(err)
		}
		var reads int
		for _, r := range full.ListReads {
			reads += r
		}
		// Every frontier step reads at least one entry, so the sweep polls
		// at most this often.
		polls := reads/(mergePollMask+1) + 2
		truncated := 0
		for p := 0; p <= polls; p++ {
			partial, pstats, err := MergeCtx(expireAfter(p), e.store, all, terms, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pstats.Approximate {
				truncated++
			} else if len(partial) != n {
				t.Fatalf("deadline after %d polls: exact run with %d answers of %d", p, len(partial), n)
			}
			SortScored(partial)
			for _, k := range []int{1, 2, len(partial) - 1, len(partial), len(partial) + 1} {
				got, stats, err := MergeCtx(expireAfter(p), e.store, all, terms, k)
				if err != nil {
					t.Fatal(err)
				}
				prefix := partial
				if k > 0 && k < len(partial) {
					prefix = partial[:k]
				}
				if len(got) != len(prefix) || (len(got) > 0 && !reflect.DeepEqual(got, prefix)) {
					t.Fatalf("deadline after %d polls, k=%d: %d answers differ from the first %d of the partial ranking", p, k, len(got), len(prefix))
				}
				if stats.Approximate != pstats.Approximate || stats.Answers != len(partial) {
					t.Fatalf("deadline after %d polls, k=%d: Approximate %v Answers %d, want %v and %d",
						p, k, stats.Approximate, stats.Answers, pstats.Approximate, len(partial))
				}
			}
		}
		if truncated < 4 {
			t.Fatalf("fixture: %d of %d deadlines cut the sweep short", truncated, polls+1)
		}
	})
}

// TestMergeTruncatedReportsDepth is the regression test for a truncated
// Merge claiming a full read: ListTotals was set to ListReads on every
// exit, so DepthFraction — and the slow log and trace that print it — said
// 1.0 for an Approximate result. Cut short, the totals come from the
// catalog; run to the end, they still cost no catalog probe and equal it.
func TestMergeTruncatedReportsDepth(t *testing.T) {
	e := retrievalBenchEnv(t)
	_, full, err := MergeCtx(context.Background(), e.store, e.sids, e.terms, 10)
	if err != nil {
		t.Fatal(err)
	}
	if full.Approximate || full.DepthFraction() != 1 {
		t.Fatalf("exact run: Approximate %v depth %v", full.Approximate, full.DepthFraction())
	}
	for j, term := range e.terms {
		total, err := builtTotal(e.store, index.KindERPL, term, e.sids)
		if err != nil {
			t.Fatal(err)
		}
		if full.ListTotals[j] != total {
			t.Fatalf("exact run: ListTotals[%d] = %d, catalog says %d", j, full.ListTotals[j], total)
		}
	}
	last := 0.0
	for _, polls := range []int{1, 3, 10} {
		_, stats, err := MergeCtx(expireAfter(polls), e.store, e.sids, e.terms, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Approximate {
			t.Fatalf("fixture: the sweep ended within %d polls", polls)
		}
		if !reflect.DeepEqual(stats.ListTotals, full.ListTotals) {
			t.Fatalf("deadline after %d polls: ListTotals %v, want the catalog's %v", polls, stats.ListTotals, full.ListTotals)
		}
		d := stats.DepthFraction()
		if d <= last || d >= 1 {
			t.Fatalf("deadline after %d polls: depth %v, want above %v and below 1", polls, d, last)
		}
		last = d
	}
}

// The allocation ceilings guard the k=1000 runs of the broad fixture (45
// sids, five terms). Merge opened 225 streams with four allocations each,
// decoded every block into a fresh slice and grew one slice of all 1,793
// answers: 1,361 allocations. Merging each term's streams under a heap it
// made 431 — a cursor and an entry buffer per stream. Sid by sid it makes
// 262: a cursor per (term, sid) segment, one entry buffer per term, nothing
// per block and no answer held past the k-th. NRA's stop test boxed one
// float64 per candidate it pushed and allocated its heap per call: 3,543;
// then two allocations per candidate, a struct and its scores: 2,548. From
// slabs it makes 573.
// TestTAAllocationCeiling is beside its fixture.
func TestMergeAllocationCeiling(t *testing.T) {
	e := retrievalBenchEnv(t)
	const ceiling = 700 // the race detector adds about 10
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := MergeCtx(context.Background(), e.store, e.sids, e.terms, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Merge k=1000 allocates %.0f times per query, ceiling %d", allocs, ceiling)
	}
}

func TestNRAAllocationCeiling(t *testing.T) {
	e := retrievalBenchEnv(t)
	const ceiling = 900 // the race detector adds about 15
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := NRACtx(context.Background(), e.store, e.sids, e.terms, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("NRA k=1000 allocates %.0f times per query, ceiling %d", allocs, ceiling)
	}
}

// TestElemSetMatchesMap: TA's seen set answers add exactly as the map it
// replaced, across growth from the smallest table, the zero key, repeats,
// and keys that differ only in doc or only in end.
func TestElemSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newElemSet(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(40))<<32 | uint64(rng.Intn(200))
		if i%1000 == 500 {
			key = 0
		}
		if got := s.add(key); got != !seen[key] {
			t.Fatalf("add(%#x) #%d = %v with the key seen before: %v", key, i, got, seen[key])
		}
		seen[key] = true
	}
	if s.n != len(seen)-1 || !s.hasZero {
		t.Fatalf("set holds %d keys and zero: %v; the map holds %d", s.n, s.hasZero, len(seen))
	}
}
