package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"trex/internal/corpus"
	"trex/internal/score"
	"trex/internal/summary"
	"trex/internal/xmlscan"
)

// BuildStats summarizes a BuildBase run.
type BuildStats struct {
	Docs          int
	Elements      int
	Terms         int   // distinct tokens
	Postings      int64 // total term occurrences
	ElementsBytes int64 // approximate Elements table size
	PostingsBytes int64 // approximate PostingLists table size
}

// parseWindow is how many parsed documents one worker may hold ahead of
// the in-order fold: enough to ride out a long document on another
// worker, few enough that the documents in flight stay a small, fixed
// part of a build's memory.
const parseWindow = 4

// parsers keeps the workers' parsers, with the terms and tags they have
// interned, from one build or staged batch to the next: ingest stages
// one document at a time.
var parsers = sync.Pool{New: func() any { return new(corpus.Parser) }}

// parseInOrder runs parse over documents 0 … n-1 on a fixed pool of
// GOMAXPROCS workers, each with its own corpus.Parser, and hands every result
// to fold in document order. Worker w parses documents w, w+workers, …
// and may run at most parseWindow results ahead of fold, so at most a
// few documents per worker are ever in flight. The first error in
// document order — from parse or from fold — stops the run and is
// returned once every worker has exited.
func parseInOrder[R any](n int, parse func(p *corpus.Parser, i int) (R, error), fold func(i int, r R) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		p := parsers.Get().(*corpus.Parser)
		defer parsers.Put(p)
		for i := 0; i < n; i++ {
			r, err := parse(p, i)
			if err != nil {
				return err
			}
			if err := fold(i, r); err != nil {
				return err
			}
		}
		return nil
	}
	type result struct {
		r   R
		err error
	}
	outs := make([]chan result, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := range outs {
		outs[w] = make(chan result, parseWindow)
		wg.Add(1)
		go func(out chan<- result) {
			defer wg.Done()
			p := parsers.Get().(*corpus.Parser)
			defer parsers.Put(p)
			for i := w; i < n; i += workers {
				select {
				case <-done:
					return
				default:
				}
				r, err := parse(p, i)
				select {
				case out <- result{r, err}:
				case <-done:
					return
				}
				if err != nil {
					return
				}
			}
		}(outs[w])
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		res := <-outs[i%workers]
		if res.err != nil {
			return res.err
		}
		if err := fold(i, res.r); err != nil {
			return err
		}
	}
	return nil
}

// termAcc accumulates one term's postings over a build.
type termAcc struct {
	term string
	df   uint32
	ps   []Pos
}

// BuildBase populates the Elements and PostingLists tables (plus term and
// collection statistics) for a collection under the given summary. These
// are the always-present indexes every retrieval strategy needs; the
// redundant RPL/ERPL lists are materialized later, per workload.
//
// Documents are parsed and grouped by term on a fixed pool of workers
// and folded in document order (parseInOrder), so positions arrive
// sorted per term and the build is deterministic. A document is dropped
// once folded: the build holds its elements and postings plus a few
// documents per worker, never the whole collection's tokens.
//
// The Elements and PostingLists tables must be empty.
func BuildBase(s *Store, col *corpus.Collection, sum *summary.Summary) (*BuildStats, error) {
	type elemRow struct {
		sid, doc, end, length uint32
	}
	type docResult struct {
		elems  []elemRow
		groups xmlscan.TermGroups
		sumLen int64
	}
	stop, err := s.Stopwords()
	if err != nil {
		return nil, err
	}
	var elems []elemRow
	var sumLen int64
	var accs []termAcc
	accOf := make(map[string]int32)
	parse := func(p *corpus.Parser, i int) (docResult, error) {
		d := &col.Docs[i]
		root, groups, err := p.Parse(col.Format, d.Data)
		if err != nil {
			return docResult{}, fmt.Errorf("index: parse doc %d: %w", d.ID, err)
		}
		r := docResult{groups: groups}
		err = sum.AssignDoc(root, func(n *xmlscan.Node, sid int) {
			r.elems = append(r.elems, elemRow{
				sid:    uint32(sid),
				doc:    uint32(d.ID),
				end:    uint32(n.End),
				length: uint32(n.Length()),
			})
			r.sumLen += int64(n.Length())
		})
		if err != nil {
			return docResult{}, fmt.Errorf("index: doc %d: %w", d.ID, err)
		}
		return r, nil
	}
	fold := func(i int, r docResult) error {
		elems = append(elems, r.elems...)
		sumLen += r.sumLen
		docID := uint32(col.Docs[i].ID)
		for gi, t := range r.groups.Terms {
			if stop[t] {
				continue
			}
			a, ok := accOf[t]
			if !ok {
				a = int32(len(accs))
				accOf[t] = a
				accs = append(accs, termAcc{term: t})
			}
			acc := &accs[a]
			acc.df++
			for _, off := range r.groups.At(gi) {
				acc.ps = append(acc.ps, Pos{Doc: docID, Off: off})
			}
		}
		return nil
	}
	if err := parseInOrder(len(col.Docs), parse, fold); err != nil {
		return nil, err
	}
	accOf = nil

	// Elements: bulk-load in (sid, doc, end) order.
	slices.SortFunc(elems, func(a, b elemRow) int {
		if c := cmp.Compare(a.sid, b.sid); c != 0 {
			return c
		}
		return CompareDocEnd(a.doc, a.end, b.doc, b.end)
	})
	ebl, err := s.Elements.NewBulkLoader(0)
	if err != nil {
		return nil, fmt.Errorf("index: Elements not empty: %w", err)
	}
	for _, e := range elems {
		if err := ebl.Add(elementsKey(e.sid, e.doc, e.end), elementsValue(e.length)); err != nil {
			return nil, err
		}
	}
	if err := ebl.Finish(); err != nil {
		return nil, err
	}

	// PostingLists: tokens in order, positions fragmented. The paper
	// appends the m-pos sentinel to the stored list; here the iterator
	// synthesizes m-pos at list end instead, so fragments can later be
	// appended for new documents (their keys sort after all existing
	// fragments of the token).
	slices.SortFunc(accs, func(a, b termAcc) int { return strings.Compare(a.term, b.term) })
	pbl, err := s.Postings.NewBulkLoader(0)
	if err != nil {
		return nil, fmt.Errorf("index: PostingLists not empty: %w", err)
	}
	var totalPostings int64
	for _, a := range accs {
		ps := a.ps
		totalPostings += int64(len(ps))
		for lo := 0; lo < len(ps); lo += maxPostingsPerFragment {
			hi := lo + maxPostingsPerFragment
			if hi > len(ps) {
				hi = len(ps)
			}
			frag := ps[lo:hi]
			if err := pbl.Add(postingKey(a.term, frag[0]), postingValue(frag)); err != nil {
				return nil, err
			}
		}
	}
	if err := pbl.Finish(); err != nil {
		return nil, err
	}

	// TermStats.
	tbl, err := s.TermStats.NewBulkLoader(0)
	if err != nil {
		return nil, fmt.Errorf("index: TermStats not empty: %w", err)
	}
	for _, a := range accs {
		if err := tbl.Add([]byte(a.term), termStatsValue(a.df, uint64(len(a.ps)))); err != nil {
			return nil, err
		}
	}
	if err := tbl.Finish(); err != nil {
		return nil, err
	}

	avg := float64(0)
	if len(elems) > 0 {
		avg = float64(sumLen) / float64(len(elems))
	}
	st := score.CollectionStats{
		NumDocs:       len(col.Docs),
		NumElements:   len(elems),
		AvgElementLen: avg,
	}
	if err := s.PutCollectionStats(st); err != nil {
		return nil, err
	}

	bs := &BuildStats{
		Docs:     len(col.Docs),
		Elements: len(elems),
		Terms:    len(accs),
		Postings: totalPostings,
	}
	if bs.ElementsBytes, err = s.Elements.ApproxBytes(); err != nil {
		return nil, err
	}
	if bs.PostingsBytes, err = s.Postings.ApproxBytes(); err != nil {
		return nil, err
	}
	return bs, nil
}
