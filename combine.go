package trex

import (
	"cmp"
	"slices"

	"trex/internal/index"
	"trex/internal/retrieval"
)

// combiner turns a flattened retrieval result into ranked answers. It holds
// everything the ranking needs besides the result itself, so it runs
// without a store: the engine backs negTF, phraseFreq and path with its
// index and summary.
type combiner struct {
	// targets are the answer extents' sids; every other retrieved element
	// is support.
	targets []uint32
	sc      interface {
		Score(term string, tf int, elemLen int) float64
	}
	// negs are the negated terms; negTF(i, e) counts negs[i] inside e.
	negs  []string
	negTF func(i int, e index.Element) (int, error)
	// phrases are the positive quoted phrases. With phraseBonus > 0 an
	// answer earns phraseBonus times a phrase's score as a unit when
	// phraseFreq finds the phrase inside it.
	phrases     [][]string
	phraseBonus float64
	phraseFreq  func(words []string, e index.Element) (int, error)
	// path is the label path expression of a sid's elements.
	path func(sid uint32) string
}

// compareAnswers is retrieval.SortScored's order over scored answers:
// score descending, then (doc, end), which identifies an answer, so the
// order is total.
func compareAnswers(a, b retrieval.Scored) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return index.CompareDocEnd(a.Elem.Doc, a.Elem.End, b.Elem.Doc, b.Elem.End)
}

// rank scores every answer and returns the best keep of them (all when
// keep <= 0) in compareAnswers order, with the number of answers.
//
// An answer's score is its own, plus the scores of the support elements
// that contain it or that it contains, minus its negated-term penalties,
// plus its phrase bonus. The support bonus needs the elements in position
// order, but only when there is support: with none, the sweep that
// attributes it is skipped. Answers are scored in retrieval order. A
// strategy run at k > 0 returns SortScored order, so when nothing moved a
// score they are already ranked and keep of them are taken as they stand;
// one run at k <= 0 returns them in no order, and this is the only
// ranking they get. Otherwise a bounded heap keeps the best keep and only
// those are sorted.
func (c *combiner) rank(scored []retrieval.Scored, keep int) ([]Answer, int, error) {
	target := retrieval.NewSIDSet(c.targets)
	n := 0
	for i := range scored {
		if target.Has(scored[i].Elem.SID) {
			n++
		}
	}
	if n == 0 {
		return nil, 0, nil
	}
	var bonus []float64
	if n < len(scored) {
		bonus = supportBonus(scored, target)
	}
	cands := make([]retrieval.Scored, 0, n)
	for i := range scored {
		s := &scored[i]
		if !target.Has(s.Elem.SID) {
			continue
		}
		var b float64
		if bonus != nil {
			b = bonus[i]
		}
		total := s.Score + b
		for j, w := range c.negs {
			tf, err := c.negTF(j, s.Elem)
			if err != nil {
				return nil, 0, err
			}
			total -= c.sc.Score(w, tf, int(s.Elem.Length))
		}
		if c.phraseBonus > 0 {
			for _, ph := range c.phrases {
				pf, err := c.phraseFreq(ph, s.Elem)
				if err != nil {
					return nil, 0, err
				}
				if pf > 0 {
					total += c.phraseBonus * c.sc.Score(ph[0], pf, int(s.Elem.Length))
				}
			}
		}
		cands = append(cands, retrieval.Scored{Elem: s.Elem, Score: total})
	}

	if keep <= 0 || keep > n {
		keep = n
	}
	switch {
	case slices.IsSortedFunc(cands, compareAnswers):
		cands = cands[:keep]
	case keep < n:
		cands = bestOf(cands, keep)
	default:
		slices.SortFunc(cands, compareAnswers)
	}

	answers := make([]Answer, len(cands))
	// Answers of one sid share its path expression.
	paths := make(map[uint32]string)
	for i, a := range cands {
		path, ok := paths[a.Elem.SID]
		if !ok {
			path = c.path(a.Elem.SID)
			paths[a.Elem.SID] = path
		}
		answers[i] = Answer{
			Doc:   a.Elem.Doc,
			Start: a.Elem.Start(),
			End:   a.Elem.End,
			SID:   a.Elem.SID,
			Path:  path,
			Score: a.Score,
		}
	}
	return answers, n, nil
}

// supportBonus returns, indexed like scored, the support bonus each target
// element earns. One containment sweep in (doc, start) order keeps an
// ancestor stack: when x is visited, the stack holds exactly the elements
// that contain x. Bonuses flow only between support (non-target) elements
// and answers: a support ancestor boosts the answers inside it, and a
// support descendant boosts the answer containing it. Answers never boost
// each other — a containing answer's own score already counts every term
// inside its span, so that would double-count.
func supportBonus(scored []retrieval.Scored, target retrieval.SIDSet) []float64 {
	bonus := make([]float64, len(scored))
	var stack []uint32
	for _, p := range positionOrder(scored) {
		x := &scored[p.i]
		for len(stack) > 0 {
			top := &scored[stack[len(stack)-1]].Elem
			if top.Doc == x.Elem.Doc && x.Elem.End <= top.End {
				break // top contains x
			}
			stack = stack[:len(stack)-1]
		}
		if target.Has(x.Elem.SID) {
			for _, a := range stack {
				if !target.Has(scored[a].Elem.SID) {
					bonus[p.i] += scored[a].Score // ancestor support
				}
			}
		} else {
			for _, a := range stack {
				if target.Has(scored[a].Elem.SID) {
					bonus[a] += x.Score // descendant support
				}
			}
		}
		stack = append(stack, p.i)
	}
	return bonus
}

// posKey is an element's packed (doc, start) position and its index in
// the retrieval result.
type posKey struct {
	key uint64
	i   uint32
}

// positionOrder returns the indexes of scored in (doc, start) order, which
// is total since (doc, start) identifies an element. It is an LSD radix
// sort of the packed key doc<<32 | start, one byte per pass; a byte every
// key shares (the high bytes of doc and start, on any real collection)
// costs no pass.
func positionOrder(scored []retrieval.Scored) []posKey {
	n := len(scored)
	buf := make([]posKey, 2*n)
	src, dst := buf[:n], buf[n:]
	var counts [8][256]int
	for i := range scored {
		e := &scored[i].Elem
		k := uint64(e.Doc)<<32 | uint64(e.Start())
		src[i] = posKey{key: k, i: uint32(i)}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := src[0].key
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(first>>shift)] == n {
			continue
		}
		for b, sum := 0, 0; b < len(c); b++ {
			c[b], sum = sum, sum+c[b]
		}
		for _, p := range src {
			b := byte(p.key >> shift)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// bestOf returns the best k of cands (0 < k < len(cands)), sorted, in
// cands' own storage. The first k are heapified once, worst at the root;
// each later answer either loses to the root in one comparison or
// replaces it. That is one comparison per answer and a sort of k
// instead of a sort of all of them.
func bestOf(cands []retrieval.Scored, k int) []retrieval.Scored {
	h := cands[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for _, x := range cands[k:] {
		if compareAnswers(h[0], x) > 0 {
			h[0] = x
			siftWorst(h, 0)
		}
	}
	slices.SortFunc(h, compareAnswers)
	return h
}

// siftWorst moves h[i] toward the leaves of a heap that keeps its worst
// answer at the root.
func siftWorst(h []retrieval.Scored, i int) {
	for {
		w := 2*i + 1
		if w >= len(h) {
			return
		}
		if r := w + 1; r < len(h) && compareAnswers(h[r], h[w]) > 0 {
			w = r
		}
		if compareAnswers(h[w], h[i]) <= 0 {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
