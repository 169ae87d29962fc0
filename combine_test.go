package trex

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trex/internal/index"
	"trex/internal/retrieval"
)

// referenceCombine is combine as it ranked before it ordered only what the
// answer needs: every retrieved element is sorted by (doc, start), swept
// for support bonuses, and every answer is then sorted by score. It
// survives here as the reference combiner.rank is compared with.
func referenceCombine(c *combiner, scored []retrieval.Scored) ([]Answer, error) {
	targetSet := make(map[uint32]bool, len(c.targets))
	for _, s := range c.targets {
		targetSet[s] = true
	}
	type item struct {
		elem   index.Element
		score  float64
		target bool
		bonus  float64
	}
	items := make([]item, len(scored))
	targets := 0
	for i, s := range scored {
		items[i] = item{elem: s.Elem, score: s.Score, target: targetSet[s.Elem.SID]}
		if items[i].target {
			targets++
		}
	}
	slices.SortFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.elem.Doc, b.elem.Doc); c != 0 {
			return c
		}
		return cmp.Compare(a.elem.Start(), b.elem.Start())
	})
	var stack []*item
	for i := range items {
		x := &items[i]
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.elem.Doc == x.elem.Doc && x.elem.End <= top.elem.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if x.target {
			for _, anc := range stack {
				if !anc.target {
					x.bonus += anc.score
				}
			}
		} else {
			for _, anc := range stack {
				if anc.target {
					anc.bonus += x.score
				}
			}
		}
		stack = append(stack, x)
	}
	var answers []Answer
	if targets > 0 {
		answers = make([]Answer, 0, targets)
	}
	paths := make(map[uint32]string)
	for i := range items {
		it := &items[i]
		if !it.target {
			continue
		}
		total := it.score + it.bonus
		for i, w := range c.negs {
			tf, err := c.negTF(i, it.elem)
			if err != nil {
				return nil, err
			}
			total -= c.sc.Score(w, tf, int(it.elem.Length))
		}
		if c.phraseBonus > 0 {
			for _, ph := range c.phrases {
				pf, err := c.phraseFreq(ph, it.elem)
				if err != nil {
					return nil, err
				}
				if pf > 0 {
					total += c.phraseBonus * c.sc.Score(ph[0], pf, int(it.elem.Length))
				}
			}
		}
		path, ok := paths[it.elem.SID]
		if !ok {
			path = c.path(it.elem.SID)
			paths[it.elem.SID] = path
		}
		answers = append(answers, Answer{
			Doc:   it.elem.Doc,
			Start: it.elem.Start(),
			End:   it.elem.End,
			SID:   it.elem.SID,
			Path:  path,
			Score: total,
		})
	}
	slices.SortFunc(answers, func(a, b Answer) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return index.CompareDocEnd(a.Doc, a.End, b.Doc, b.End)
	})
	return answers, nil
}

// stubScorer scores like a term weight without a collection behind it.
type stubScorer struct{}

func (stubScorer) Score(term string, tf int, elemLen int) float64 {
	return float64(tf) * float64(1+len(term)) / float64(elemLen+3)
}

// spanHash is a deterministic stand-in for a count read from the index.
func spanHash(salt int, e index.Element) int {
	h := uint32(salt)*0x9e3779b9 ^ e.Doc*0x85ebca6b ^ e.End*0xc2b2ae35 ^ e.Length
	h ^= h >> 15
	return int(h)
}

// combineCase is one randomly generated input to combine.
type combineCase struct {
	scored []retrieval.Scored
	c      combiner
}

const combineSIDs = 6

// randomCombineCase draws an element forest — nested elements in several
// documents, a random subset of them retrieved, scores from a small set so
// ties are common — and the rest of combine's input. targets picks the
// answer extents: 0 all sids, 1 none, otherwise a random subset. order
// puts the result in SortScored order (0), its reverse (1) or shuffles it.
func randomCombineCase(r *rand.Rand, targets, order int) combineCase {
	var scored []retrieval.Scored
	doc := uint32(r.Intn(1 << 20))
	for range 1 + r.Intn(4) {
		doc += 1 + uint32(r.Intn(70_000))
		pos := uint32(r.Intn(1 << 25))
		var grow func(depth int)
		grow = func(depth int) {
			start := pos
			pos += 1 + uint32(r.Intn(6))
			if depth < 4 {
				for range r.Intn(4) {
					grow(depth + 1)
					pos += uint32(r.Intn(3))
				}
			}
			pos += 1 + uint32(r.Intn(6))
			end := pos
			pos++
			if r.Intn(4) != 0 {
				scored = append(scored, retrieval.Scored{
					Elem:  index.Element{SID: uint32(r.Intn(combineSIDs)), Doc: doc, End: end, Length: end - start},
					Score: float64(r.Intn(8)) / 4,
				})
			}
		}
		for range 1 + r.Intn(3) {
			grow(0)
		}
	}
	switch order {
	case 0:
		retrieval.SortScored(scored)
	case 1:
		retrieval.SortScored(scored)
		slices.Reverse(scored)
	default:
		r.Shuffle(len(scored), func(i, j int) { scored[i], scored[j] = scored[j], scored[i] })
	}

	c := combiner{
		sc:   stubScorer{},
		path: func(sid uint32) string { return fmt.Sprintf("/article/sec%d", sid) },
	}
	switch targets {
	case 0:
		for sid := range uint32(combineSIDs) {
			c.targets = append(c.targets, sid)
		}
	case 1:
	default:
		for sid := range uint32(combineSIDs + 2) {
			if r.Intn(2) == 0 {
				c.targets = append(c.targets, sid)
			}
		}
	}
	for i := range r.Intn(3) {
		c.negs = append(c.negs, fmt.Sprintf("neg%d", i))
	}
	c.negTF = func(i int, e index.Element) (int, error) { return spanHash(i+1, e) % 3, nil }
	for i := range r.Intn(3) {
		c.phrases = append(c.phrases, []string{fmt.Sprintf("phrase%d", i), "word"})
	}
	c.phraseBonus = []float64{0, 0.5, 1}[r.Intn(3)]
	c.phraseFreq = func(words []string, e index.Element) (int, error) {
		return spanHash(len(words[0]), e) % 2, nil
	}
	return combineCase{scored: scored, c: c}
}

// checkCombine holds combiner.rank to referenceCombine at every k and
// offset the query path can ask for around the answer count n: the page
// and the answer total must match exactly, scores by their bits.
func checkCombine(t *testing.T, label string, cc combineCase) {
	t.Helper()
	want, err := referenceCombine(&cc.c, cc.scored)
	if err != nil {
		t.Fatal(err)
	}
	n := len(want)
	for _, k := range []int{0, 1, 2, n - 1, n, n + 1} {
		for _, offset := range []int{0, 1, n} {
			got, total, err := cc.c.rank(cc.scored, rankDepth(k, offset))
			if err != nil {
				t.Fatal(err)
			}
			if total != n {
				t.Fatalf("%s k=%d offset=%d: total %d, want %d", label, k, offset, total, n)
			}
			gp, wp := page(got, k, offset), page(want, k, offset)
			if len(gp) != len(wp) {
				t.Fatalf("%s k=%d offset=%d: %d answers, want %d", label, k, offset, len(gp), len(wp))
			}
			for i := range wp {
				g, w := gp[i], wp[i]
				if g.Doc != w.Doc || g.Start != w.Start || g.End != w.End || g.SID != w.SID ||
					g.Path != w.Path || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s k=%d offset=%d: answer %d = %+v, want %+v", label, k, offset, i, g, w)
				}
			}
		}
	}
}

// TestCombineMatchesReference compares the ranking with the sort-everything
// reference on random forests: all-target, no-target and mixed sid sets,
// input in score order, reversed and shuffled, with negated-term and
// phrase scores from stubs.
func TestCombineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20070415))
	for i := range 300 {
		for targets := range 3 {
			for order := range 3 {
				checkCombine(t, fmt.Sprintf("case %d targets=%d order=%d", i, targets, order),
					randomCombineCase(r, targets, order))
			}
		}
	}
}

// FuzzCombine runs the same comparison on fuzzer-chosen forests.
func FuzzCombine(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed, uint8(seed), uint8(seed+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, targets, order uint8) {
		cc := randomCombineCase(rand.New(rand.NewSource(seed)), int(targets%3), int(order%3))
		checkCombine(t, fmt.Sprintf("seed %d", seed), cc)
	})
}

// TestPositionOrder checks the radix sort against a comparison sort,
// including keys whose high bytes of doc and start differ.
func TestPositionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 100, 1000} {
		scored := make([]retrieval.Scored, n)
		for i := range scored {
			doc, end := r.Uint32()>>uint(r.Intn(32)), r.Uint32()>>uint(r.Intn(32))
			scored[i].Elem = index.Element{Doc: doc, End: end, Length: end >> uint(r.Intn(32))}
		}
		got := positionOrder(scored)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			ea, eb := scored[a].Elem, scored[b].Elem
			if c := cmp.Compare(ea.Doc, eb.Doc); c != 0 {
				return c
			}
			return cmp.Compare(ea.Start(), eb.Start())
		})
		for i := range want {
			if int(got[i].i) != want[i] {
				t.Fatalf("n=%d: position %d holds %d, want %d", n, i, got[i].i, want[i])
			}
		}
	}
}
