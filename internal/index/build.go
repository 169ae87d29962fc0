package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

// BuildBase populates the Elements and PostingLists tables (plus term and
// collection statistics) for a collection under the given summary. These
// are the always-present indexes every retrieval strategy needs; the
// redundant RPL/ERPL lists are materialized later, per workload.
//
// The Elements and PostingLists tables must be empty.
func BuildBase(s *Store, col *corpus.Collection, sum *summary.Summary) (*BuildStats, error) {
	type elemRow struct {
		sid, doc, end, length uint32
	}
	var elems []elemRow
	postings := make(map[string][]Pos)
	df := make(map[string]uint32)
	cf := make(map[string]uint64)
	var sumLen int64
	stop, err := s.Stopwords()
	if err != nil {
		return nil, err
	}

	// Parse and tokenize documents in parallel: each worker produces a
	// per-document result, and the merge below runs in document order so
	// the build is deterministic and positions stay sorted per token.
	type docResult struct {
		elems  []elemRow
		terms  []xmlscan.Term
		sumLen int64
		err    error
	}
	results := make([]docResult, len(col.Docs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range col.Docs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			d := &col.Docs[i]
			r := &results[i]
			root, terms, err := corpus.ParseAndTerms(col.Format, d.Data)
			if err != nil {
				r.err = fmt.Errorf("index: parse doc %d: %w", d.ID, err)
				return
			}
			r.terms = terms
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
				r.err = fmt.Errorf("index: doc %d: %w", d.ID, err)
			}
		}(i)
	}
	wg.Wait()

	for i := range col.Docs {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		elems = append(elems, r.elems...)
		sumLen += r.sumLen
		seenInDoc := make(map[string]bool)
		docID := uint32(col.Docs[i].ID)
		for _, t := range r.terms {
			if stop[t.Text] {
				continue
			}
			postings[t.Text] = append(postings[t.Text], Pos{Doc: docID, Off: uint32(t.Offset)})
			cf[t.Text]++
			if !seenInDoc[t.Text] {
				seenInDoc[t.Text] = true
				df[t.Text]++
			}
		}
	}

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
	tokens := make([]string, 0, len(postings))
	for t := range postings {
		tokens = append(tokens, t)
	}
	slices.Sort(tokens)
	pbl, err := s.Postings.NewBulkLoader(0)
	if err != nil {
		return nil, fmt.Errorf("index: PostingLists not empty: %w", err)
	}
	var totalPostings int64
	for _, t := range tokens {
		ps := postings[t]
		totalPostings += int64(len(ps))
		for lo := 0; lo < len(ps); lo += maxPostingsPerFragment {
			hi := lo + maxPostingsPerFragment
			if hi > len(ps) {
				hi = len(ps)
			}
			frag := ps[lo:hi]
			if err := pbl.Add(postingKey(t, frag[0]), postingValue(frag)); err != nil {
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
	for _, t := range tokens {
		if err := tbl.Add([]byte(t), termStatsValue(df[t], cf[t])); err != nil {
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
		Terms:    len(tokens),
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
