package retrieval

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/oracle/gen"
	"trex/internal/storage"
)

// seekPerAdvanceIterator is the Elements iterator ERA ran on before the
// forward sweep: a fresh root-to-leaf Seek and a fresh key for every
// advance. It survives here as the reference the sweep is compared with.
type seekPerAdvanceIterator struct {
	sid uint32
	cur *storage.Cursor
}

func (it *seekPerAdvanceIterator) seek(doc, end uint32) (index.Element, error) {
	key := make([]byte, 12)
	binary.BigEndian.PutUint32(key[0:4], it.sid)
	binary.BigEndian.PutUint32(key[4:8], doc)
	binary.BigEndian.PutUint32(key[8:12], end)
	ok, err := it.cur.Seek(key)
	if err != nil {
		return index.Element{}, err
	}
	if !ok {
		return index.DummyElement(), nil
	}
	k, v := it.cur.Key(), it.cur.Value()
	if len(k) != 12 || len(v) != 4 {
		return index.Element{}, fmt.Errorf("bad Elements row %x=%x", k, v)
	}
	if binary.BigEndian.Uint32(k[0:4]) != it.sid {
		return index.DummyElement(), nil
	}
	return index.Element{
		SID:    it.sid,
		Doc:    binary.BigEndian.Uint32(k[4:8]),
		End:    binary.BigEndian.Uint32(k[8:12]),
		Length: binary.BigEndian.Uint32(v),
	}, nil
}

// referenceERA is Figure 2 as it was written before the sweep kept any
// state between positions: every position is compared with every sid's
// current element, every advance is an index seek, and a flush scans the
// counter row for a non-zero entry.
func referenceERA(ctx context.Context, st *index.Store, sids []uint32, terms []string) ([]ElementTF, *Stats, error) {
	stats := &Stats{ListReads: make([]int, len(terms))}
	m, n := len(sids), len(terms)
	var out []ElementTF
	if m == 0 || n == 0 {
		return out, stats, nil
	}
	elemIters := make([]*seekPerAdvanceIterator, m)
	cur := make([]index.Element, m)
	for i, sid := range sids {
		elemIters[i] = &seekPerAdvanceIterator{sid: sid, cur: st.Elements.Cursor()}
		e, err := elemIters[i].seek(0, 0)
		if err != nil {
			return nil, nil, err
		}
		cur[i] = e
		stats.ElementsScanned++
	}
	posIters := make([]*index.PostingIterator, n)
	pos := make([]index.Pos, n)
	for j, t := range terms {
		posIters[j] = index.NewPostingIterator(st, t)
		p, err := posIters[j].NextPosition()
		if err != nil {
			return nil, nil, err
		}
		pos[j] = p
		if !p.IsMax() {
			stats.PositionsScanned++
		}
	}
	c := make([][]int, m)
	for i := range c {
		c[i] = make([]int, n)
	}
	flush := func(i int) {
		for _, v := range c[i] {
			if v != 0 {
				out = append(out, ElementTF{Elem: cur[i], TF: append([]int(nil), c[i]...)})
				clear(c[i])
				return
			}
		}
	}
	for step := 0; ; step++ {
		if step%budgetPollInterval == 0 {
			if stop, err := pollBudget(ctx); err != nil {
				return nil, nil, err
			} else if stop {
				for i := 0; i < m; i++ {
					flush(i)
				}
				stats.Approximate = true
				break
			}
		}
		x := 0
		for j := 1; j < n; j++ {
			if pos[j].Less(pos[x]) {
				x = j
			}
		}
		px := pos[x]
		if px.IsMax() {
			for i := 0; i < m; i++ {
				flush(i)
			}
			break
		}
		for i := 0; i < m; i++ {
			e := cur[i]
			if e.IsDummy() {
				continue
			}
			switch {
			case px.Less(index.Pos{Doc: e.Doc, Off: e.Start() + 1}):
			case e.Contains(px):
				c[i][x]++
			default:
				flush(i)
				// No generated position has the maximal offset, so the
				// strictly-greater target needs no carry into the doc id.
				next, err := elemIters[i].seek(px.Doc, px.Off+1)
				if err != nil {
					return nil, nil, err
				}
				cur[i] = next
				stats.ElementsScanned++
				if next.Contains(px) {
					c[i][x]++
				}
			}
		}
		p, err := posIters[x].NextPosition()
		if err != nil {
			return nil, nil, err
		}
		pos[x] = p
		if !p.IsMax() {
			stats.PositionsScanned++
		}
		stats.ListReads[x]++
	}
	stats.Answers = len(out)
	return out, stats, nil
}

// pollLimitedCtx is a deadline that expires at an exact point of the
// sweep: its Done channel is open for the first `polls` budget polls and
// closed from then on, so two implementations that poll on the same
// schedule stop at the same position.
type pollLimitedCtx struct {
	context.Context
	polls *int
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c pollLimitedCtx) Done() <-chan struct{} {
	if *c.polls <= 0 {
		return closedChan
	}
	*c.polls--
	return nil
}

func (c pollLimitedCtx) Err() error { return context.DeadlineExceeded }

func expireAfter(polls int) context.Context {
	return pollLimitedCtx{Context: context.Background(), polls: &polls}
}

func requireSameERA(t *testing.T, label string, st *index.Store, sids []uint32, terms []string, ctx func() context.Context) {
	t.Helper()
	want, wantStats, err := referenceERA(ctx(), st, sids, terms)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, gotStats, err := ERACtx(ctx(), st, sids, terms)
	if err != nil {
		t.Fatalf("%s: ERACtx: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Elem != want[i].Elem || !reflect.DeepEqual(got[i].TF, want[i].TF) {
			t.Fatalf("%s: row %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	if gotStats.PositionsScanned != wantStats.PositionsScanned ||
		gotStats.ElementsScanned != wantStats.ElementsScanned ||
		gotStats.Answers != wantStats.Answers ||
		gotStats.Approximate != wantStats.Approximate ||
		!reflect.DeepEqual(gotStats.ListReads, wantStats.ListReads) {
		t.Fatalf("%s: stats = {pos %d elem %d reads %v answers %d approx %v}, reference {pos %d elem %d reads %v answers %d approx %v}",
			label, gotStats.PositionsScanned, gotStats.ElementsScanned, gotStats.ListReads, gotStats.Answers, gotStats.Approximate,
			wantStats.PositionsScanned, wantStats.ElementsScanned, wantStats.ListReads, wantStats.Answers, wantStats.Approximate)
	}
}

// TestERASweepMatchesSeekPerAdvance compares the sweep's rows, their order
// and its counters with the reference over generated corpora in both
// universes: every sid of the summary at once (what a vague translation
// of //* produces), random subsets, sids with empty extents, a term with
// no postings, and deadlines that expire at every poll of the sweep.
func TestERASweepMatchesSeekPerAdvance(t *testing.T) {
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
			background := func() context.Context { return context.Background() }
			empty := uint32(len(all) + 50) // no element carries it
			rng := rand.New(rand.NewSource(11))
			for c := 0; c < 40; c++ {
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
				ts := append([]string(nil), terms[:1+rng.Intn(len(terms))]...)
				if c%5 == 0 {
					ts = append(ts, "nosuchterm")
				}
				label := fmt.Sprintf("case %d sids %v terms %v", c, sids, ts)
				requireSameERA(t, label, e.store, sids, ts, background)
			}
			// A deadline at every poll point of the widest sweep.
			_, full, err := ERACtx(context.Background(), e.store, all, terms)
			if err != nil {
				t.Fatal(err)
			}
			polls := int(full.PositionsScanned)/budgetPollInterval + 2
			if polls < 4 {
				t.Fatalf("fixture: the sweep polls %d times, too few to stop mid-way", polls)
			}
			for p := 0; p <= polls; p++ {
				p := p
				requireSameERA(t, fmt.Sprintf("deadline after %d polls", p), e.store, all, terms,
					func() context.Context { return expireAfter(p) })
			}
		})
	}
}

// frequentTerms returns the n terms with the most postings.
func frequentTerms(t *testing.T, st *index.Store, n int) []string {
	t.Helper()
	type tc struct {
		term string
		cf   int64
	}
	var best []tc
	cur := st.TermStats.Cursor()
	ok, err := cur.First()
	for ; ok; ok, err = cur.Next() {
		term := string(cur.Key())
		cf, err := st.TermCF(term)
		if err != nil {
			t.Fatal(err)
		}
		best = append(best, tc{term, cf})
	}
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(best, func(i, j int) bool {
		if best[i].cf != best[j].cf {
			return best[i].cf > best[j].cf
		}
		return best[i].term < best[j].term
	})
	if len(best) < n {
		t.Fatalf("fixture: %d terms, want %d", len(best), n)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = best[i].term
	}
	return out
}

// TestExhaustiveTopKSelectsSortedPrefix: selecting k answers through the
// bounded heap returns exactly the first k of the full ranking, at the
// edges of the heap path (k = 1, 2, n-1) and beyond it (k = n, n+1), and
// reports no heap operations.
func TestExhaustiveTopKSelectsSortedPrefix(t *testing.T) {
	e := retrievalBenchEnv(t)
	full, _, err := ExhaustiveTopKCtx(context.Background(), e.store, e.sids, e.terms, e.sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	SortScored(full) // k <= 0 promises every answer, not an order
	n := len(full)
	if n < 4 {
		t.Fatalf("fixture: %d answers", n)
	}
	for _, k := range []int{1, 2, n - 1, n, n + 1} {
		got, stats, err := ExhaustiveTopKCtx(context.Background(), e.store, e.sids, e.terms, e.sc, k)
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if k < n {
			want = full[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: top-k differs from the first %d of the full ranking", k, len(want))
		}
		if stats.HeapOps != 0 || stats.Answers != n {
			t.Fatalf("k=%d: HeapOps %d Answers %d, want 0 and %d", k, stats.HeapOps, stats.Answers, n)
		}
	}
}

// TestERAAllocationCeiling and TestERAPageTouchCeiling guard the sweep on
// the broad fixture (45 sids, five terms, 6,930 positions, 3,963 element
// advances). When every advance was a fresh Seek with a fresh key the
// query made 4,146 allocations and touched 7,961 pages; sweeping forward
// inside the held leaf it makes 140 allocations (iterators, cursors,
// output rows) and touches 295 pages (posting leaves, each sid's first
// seek, one descent per Elements leaf boundary). The ceilings sit at about
// a tenth of the old figures.
func TestERAAllocationCeiling(t *testing.T) {
	e := retrievalBenchEnv(t)
	const ceiling = 400
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := ERACtx(context.Background(), e.store, e.sids, e.terms); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("ERA allocates %.0f times per query, ceiling %d", allocs, ceiling)
	}
}

func TestERAPageTouchCeiling(t *testing.T) {
	e := retrievalBenchEnv(t)
	const ceiling = 800
	_, stats, err := ERACtx(context.Background(), e.store, e.sids, e.terms)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IOExact {
		t.Fatal("fixture: the run's page count is not exact")
	}
	if stats.PageReads > ceiling {
		t.Fatalf("ERA touches %d pages (%d element advances), ceiling %d", stats.PageReads, stats.ElementsScanned, ceiling)
	}
}
