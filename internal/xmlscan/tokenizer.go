package xmlscan

// Term is one word occurrence inside a document.
type Term struct {
	// Text is the lowercased token.
	Text string
	// Offset is the byte position of the token's first character in the
	// document — the "offset" field of the PostingLists table.
	Offset int
}

// minTermLen drops one-character noise tokens.
const minTermLen = 2

// isTermByte reports whether c participates in a token. Tokens are ASCII
// alphanumeric runs; everything else (punctuation, entities, markup,
// non-ASCII bytes) separates tokens. INEX-era engines used comparable
// ASCII folding.
func isTermByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// Tokenize extracts terms from a text run. base is the byte offset of
// text[0] within the document, so emitted offsets are document-global.
// The callback is invoked once per token in order; it must copy Text if it
// retains it (it is freshly allocated, so retention is safe, but offsets
// into text are not).
func Tokenize(text []byte, base int, fn func(Term)) {
	i := 0
	for i < len(text) {
		if !isTermByte(text[i]) {
			i++
			continue
		}
		start := i
		for i < len(text) && isTermByte(text[i]) {
			i++
		}
		if i-start < minTermLen {
			continue
		}
		buf := make([]byte, i-start)
		for j := start; j < i; j++ {
			buf[j-start] = lowerByte(text[j])
		}
		fn(Term{Text: string(buf), Offset: base + start})
	}
}

// TokenizeString is Tokenize over a query string; offsets are relative to
// the string and usually ignored by callers.
func TokenizeString(s string) []string {
	var out []string
	Tokenize([]byte(s), 0, func(t Term) { out = append(out, t.Text) })
	return out
}

// TermGroups is one document's terms grouped by text: its distinct
// terms in first-occurrence order, each with the ascending offsets of
// its occurrences. It is the form the index build consumes — a term's
// postings, document frequency and stopword check are per group, so
// the per-token work left is an append.
type TermGroups struct {
	// Terms are the distinct lowercased terms, in first-occurrence order.
	Terms []string
	// Offsets holds the document-global offset of every occurrence,
	// grouped in the order of Terms; each group ascends.
	Offsets []uint32
	// starts[i] is where term i's group begins in Offsets.
	starts []uint32
}

// At returns the offsets of term i, ascending.
func (tg *TermGroups) At(i int) []uint32 {
	end := len(tg.Offsets)
	if i+1 < len(tg.starts) {
		end = int(tg.starts[i+1])
	}
	return tg.Offsets[tg.starts[i]:end]
}

// Grouper tokenizes documents into TermGroups. Its state is reused from
// one document to the next, and it interns terms: the lookup
// m[string(buf)] of a lowercased token does not allocate, and a term's
// string is made the first time the grouper meets the term, so a
// grouper allocates one string per distinct term it meets plus each
// result's two slices. One worker keeps one Grouper for all its
// documents; it holds at most maxInterned terms. A Grouper is not safe
// for concurrent use. The zero value is ready to use.
type Grouper struct {
	ids      map[string]int32 // term -> id, for every term seen
	names    []string         // id -> term
	slot     []int32          // id -> 1 + its group in the current document, 0 if absent
	docIDs   []int32          // group -> id, in first-occurrence order
	buf      []byte           // the current token, lowercased
	tokGroup []int32          // group of each token, in document order
	tokOff   []uint32         // offset of each token, in document order
}

// Text tokenizes one text run of the current document exactly as
// Tokenize does; base is the document offset of text[0].
func (g *Grouper) Text(text []byte, base int) {
	if g.ids == nil {
		g.ids = make(map[string]int32)
	}
	i := 0
	for i < len(text) {
		if !isTermByte(text[i]) {
			i++
			continue
		}
		start := i
		for i < len(text) && isTermByte(text[i]) {
			i++
		}
		if i-start < minTermLen {
			continue
		}
		g.buf = g.buf[:0]
		for j := start; j < i; j++ {
			g.buf = append(g.buf, lowerByte(text[j]))
		}
		id, ok := g.ids[string(g.buf)]
		if !ok {
			id = int32(len(g.names))
			t := string(g.buf)
			g.ids[t] = id
			g.names = append(g.names, t)
			g.slot = append(g.slot, 0)
		}
		if g.slot[id] == 0 {
			g.docIDs = append(g.docIDs, id)
			g.slot[id] = int32(len(g.docIDs))
		}
		g.tokGroup = append(g.tokGroup, g.slot[id]-1)
		g.tokOff = append(g.tokOff, uint32(base+start))
	}
}

// Finish returns the groups of the text runs given since the last
// Finish and readies the grouper for the next document. The result owns
// its slices; its strings are shared with the grouper.
func (g *Grouper) Finish() TermGroups {
	n := len(g.docIDs)
	flat := make([]uint32, n+len(g.tokOff))
	tg := TermGroups{Terms: make([]string, n), starts: flat[:n:n], Offsets: flat[n:]}
	for i, id := range g.docIDs {
		tg.Terms[i] = g.names[id]
	}
	// Counting placement: starts holds each group's end, then walking the
	// tokens backwards moves it down to the group's start while filling
	// the group back to front, so each group keeps document order.
	for _, gi := range g.tokGroup {
		tg.starts[gi]++
	}
	var sum uint32
	for i, c := range tg.starts {
		sum += c
		tg.starts[i] = sum
	}
	for j := len(g.tokGroup) - 1; j >= 0; j-- {
		gi := g.tokGroup[j]
		tg.starts[gi]--
		tg.Offsets[tg.starts[gi]] = g.tokOff[j]
	}
	g.reset()
	return tg
}

// maxInterned bounds what a long-lived grouper holds: once it has
// interned more terms than this, it forgets them all at the end of the
// document and starts over with the next.
const maxInterned = 1 << 16

// reset drops the current document's tokens.
func (g *Grouper) reset() {
	for _, id := range g.docIDs {
		g.slot[id] = 0
	}
	g.docIDs = g.docIDs[:0]
	g.tokGroup = g.tokGroup[:0]
	g.tokOff = g.tokOff[:0]
	if len(g.names) > maxInterned {
		g.ids, g.names, g.slot = nil, nil, nil
	}
}

// Parse builds the element tree of a document, as the package-level
// Parse does, and groups its terms in the same scan.
func (g *Grouper) Parse(data []byte) (*Node, TermGroups, error) {
	root, err := parse(data, g)
	if err != nil {
		g.reset()
		return nil, TermGroups{}, err
	}
	return root, g.Finish(), nil
}
