package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"trex/internal/storage"
)

// ElementIterator walks the extent of one sid in (doc, endpos) order —
// the I_s iterator of the ERA algorithm (paper Figure 2). At extent end it
// returns the dummy element (end position m-pos, length zero). Its
// targets only ever grow, so it advances with Cursor.SeekForward: an
// element in the leaf the cursor already holds costs no tree descent.
type ElementIterator struct {
	sid uint32
	cur *storage.Cursor
	key [12]byte // seek-target buffer: the sid, then each advance's (doc, end)
}

// NewElementIterator creates an iterator over the elements with the given
// sid.
func NewElementIterator(s *Store, sid uint32) *ElementIterator {
	it := &ElementIterator{sid: sid, cur: s.Elements.Cursor()}
	binary.BigEndian.PutUint32(it.key[0:4], sid)
	return it
}

// seek returns the extent's first element at or after (doc, end), or the
// dummy element once the cursor leaves the sid's key range.
func (it *ElementIterator) seek(doc, end uint32) (Element, error) {
	binary.BigEndian.PutUint32(it.key[4:8], doc)
	binary.BigEndian.PutUint32(it.key[8:12], end)
	ok, err := it.cur.SeekForward(it.key[:])
	if err != nil {
		return Element{}, err
	}
	if !ok {
		return DummyElement(), nil
	}
	sid, doc, end, err := decodeElementsKey(it.cur.Key())
	if err != nil {
		return Element{}, err
	}
	if sid != it.sid {
		return DummyElement(), nil
	}
	length, err := decodeElementsValue(it.cur.Value())
	if err != nil {
		return Element{}, err
	}
	return Element{SID: sid, Doc: doc, End: end, Length: length}, nil
}

// FirstElement returns the first element of the extent, or the dummy
// element if the extent is empty.
func (it *ElementIterator) FirstElement() (Element, error) {
	return it.seek(0, 0)
}

// NextElementAfter returns the extent element with the lowest end position
// strictly greater than p, or the dummy element — the paper's index seek,
// answered in place while the target stays inside the current leaf.
func (it *ElementIterator) NextElementAfter(p Pos) (Element, error) {
	doc, off := p.Doc, p.Off
	// Strictly-greater seek target: increment (doc, off) lexicographically.
	if off == math.MaxUint32 {
		if doc == math.MaxUint32 {
			return DummyElement(), nil
		}
		doc, off = doc+1, 0
	} else {
		off++
	}
	return it.seek(doc, off)
}

// PostingIterator walks a term's posting list in position order — the I_t
// iterator of ERA. Every list logically ends with m-pos; iterating past
// the end keeps returning m-pos, matching the paper's loop condition
// "until for all the terms, the maximal position m-pos has been reached".
type PostingIterator struct {
	store  *Store
	term   string
	prefix []byte
	cur    interface {
		SeekPrefix(prefix []byte) (bool, error)
		NextPrefix(prefix []byte) (bool, error)
		Value() []byte
	}
	frag    []Pos // the current fragment, decoded into a buffer the iterator reuses
	i       int
	started bool
	done    bool
}

// NewPostingIterator creates an iterator over term's posting list.
func NewPostingIterator(s *Store, term string) *PostingIterator {
	return &PostingIterator{
		store:  s,
		term:   term,
		prefix: termPrefix(term),
		cur:    s.Postings.Cursor(),
	}
}

// NextPosition returns the next position, or m-pos once exhausted.
func (it *PostingIterator) NextPosition() (Pos, error) {
	if it.done {
		return MaxPos, nil
	}
	for it.i >= len(it.frag) {
		var ok bool
		var err error
		if !it.started {
			it.started = true
			ok, err = it.cur.SeekPrefix(it.prefix)
		} else {
			ok, err = it.cur.NextPrefix(it.prefix)
		}
		if err != nil {
			return MaxPos, err
		}
		if !ok {
			it.done = true
			return MaxPos, nil
		}
		if it.frag, err = decodePostingInto(it.frag[:0], it.cur.Value()); err != nil {
			return MaxPos, err
		}
		it.i = 0
	}
	p := it.frag[it.i]
	it.i++
	if p.IsMax() {
		it.done = true
	}
	return p, nil
}

// listCursor is the cursor surface the list iterators need.
type listCursor interface {
	SeekPrefix(prefix []byte) (bool, error)
	NextPrefix(prefix []byte) (bool, error)
	Key() []byte
	Value() []byte
}

// RPLIterator walks a term's relevance posting list in descending score
// order — the sorted access TA performs.
//
// A term's blocks written by different runs interleave in key space —
// Materialize runs over different sid sets, and the survivors dropRPL
// re-encodes — so the iterator merges a buffer of decoded-but-unreturned
// entries against the cursor stream: an entry is only emitted once the
// next undecoded row is known to start at or after it. The lookahead is
// one row; each row is decoded exactly once.
type RPLIterator struct {
	store   *Store
	term    string
	prefix  []byte
	cur     listCursor
	started bool
	// curValid marks an un-consumed row under the cursor.
	curValid bool
	done     bool
	pending  []RPLEntry
	pi       int
	// Reads counts entries returned; the experiments use it to measure
	// how deep TA reads into each list before stopping.
	Reads int
	// RowsRead counts storage rows fetched — with block rows this is the
	// cursor-step cost, a fraction of Reads.
	RowsRead int
}

// NewRPLIterator creates a descending-score iterator over term's RPL.
func NewRPLIterator(s *Store, term string) *RPLIterator {
	return &RPLIterator{store: s, term: term, prefix: termPrefix(term), cur: s.rplCursor(term)}
}

// rplKeyTailLess reports whether the 20-byte RPL key tail orders before
// entry p's (ir, sid, doc, end) tuple.
func rplKeyTailLess(rest []byte, p RPLEntry) bool {
	ir := beUint64(rest[0:8])
	pir := invertScore(p.Score)
	if ir != pir {
		return ir < pir
	}
	sid := beUint32(rest[8:12])
	if sid != p.SID {
		return sid < p.SID
	}
	doc := beUint32(rest[12:16])
	if doc != p.Doc {
		return doc < p.Doc
	}
	return beUint32(rest[16:20]) < p.End
}

// fill establishes the emit invariant: either the iterator is exhausted,
// or pending[pi] is the globally next entry (no unread row can start
// before it).
func (it *RPLIterator) fill() error {
	for {
		if it.pi >= len(it.pending) {
			it.pending = it.pending[:0]
			it.pi = 0
		}
		if !it.curValid {
			if it.done {
				return nil
			}
			var ok bool
			var err error
			if !it.started {
				it.started = true
				ok, err = it.cur.SeekPrefix(it.prefix)
			} else {
				ok, err = it.cur.NextPrefix(it.prefix)
			}
			if err != nil {
				return err
			}
			if !ok {
				it.done = true
				return nil
			}
			it.curValid = true
			it.RowsRead++
		}
		rest := it.cur.Key()[len(it.prefix):]
		if len(rest) != 20 {
			return fmt.Errorf("index: bad RPL key tail length %d", len(rest))
		}
		if it.pi < len(it.pending) && !rplKeyTailLess(rest, it.pending[it.pi]) {
			return nil // buffered minimum precedes the next row: safe to emit
		}
		entries, err := decodeRPLBlock(it.cur.Value())
		if err != nil {
			return err
		}
		it.curValid = false
		it.pending, it.pi = mergeRuns(it.pending, it.pi, entries)
	}
}

// mergeRuns merges the unconsumed tail of a sorted pending buffer with a
// freshly decoded sorted run. The common case — empty buffer — reuses the
// decoded slice outright.
func mergeRuns(pending []RPLEntry, pi int, es []RPLEntry) ([]RPLEntry, int) {
	if pi >= len(pending) {
		return es, 0
	}
	rem := pending[pi:]
	merged := make([]RPLEntry, 0, len(rem)+len(es))
	i, j := 0, 0
	for i < len(rem) && j < len(es) {
		if compareRPLEntries(es[j], rem[i]) < 0 {
			merged = append(merged, es[j])
			j++
		} else {
			merged = append(merged, rem[i])
			i++
		}
	}
	merged = append(merged, rem[i:]...)
	merged = append(merged, es[j:]...)
	return merged, 0
}

// Peek returns the next entry without consuming it.
func (it *RPLIterator) Peek() (RPLEntry, bool, error) {
	if err := it.fill(); err != nil {
		return RPLEntry{}, false, err
	}
	if it.pi < len(it.pending) {
		return it.pending[it.pi], true, nil
	}
	return RPLEntry{}, false, nil
}

// Next returns the next entry; ok is false once the list is exhausted.
func (it *RPLIterator) Next() (RPLEntry, bool, error) {
	e, ok, err := it.Peek()
	if err != nil || !ok {
		return RPLEntry{}, false, err
	}
	it.pi++
	it.Reads++
	return e, true, nil
}

// BlockMaxScore bounds every unreturned entry's score: emission is
// score-descending, so the next entry's score is the maximum of the rest.
// Mid-block this is tighter than the block header's max; ok is false once
// the list is exhausted (bound 0). TA and NRA tighten their thresholds
// with it.
func (it *RPLIterator) BlockMaxScore() (float64, bool, error) {
	e, ok, err := it.Peek()
	return e.Score, ok, err
}

// ERPLIterator walks the (term, sid) segment of an ERPL in position
// order. One Materialize run writes a whole (term, sid) segment, so its
// blocks follow each other without overlapping and the iterator is a block
// walker: it decodes a row into the buffer it owns, returns the row's
// entries, and steps the cursor only once the buffer is spent. A row that
// does not start after the entries before it is reported as corrupt, not
// merged. A scan allocates only while the buffer grows to block size.
type ERPLIterator struct {
	prefix  []byte
	cur     listCursor
	started bool
	done    bool
	buf     []RPLEntry // the current row's entries; buf[pi:] are unreturned
	pi      int
	// floor is the lowest packed (doc, end) the next row may start at: one
	// past the last entry of the rows before it, decoded or skipped.
	floor uint64
	// RowsRead counts storage rows fetched.
	RowsRead int
}

// NewERPLIterator creates an iterator over the ERPL entries of (term, sid).
func NewERPLIterator(s *Store, term string, sid uint32) *ERPLIterator {
	return &ERPLIterator{prefix: erplSIDPrefix(term, sid), cur: s.erplCursor(term, sid)}
}

// step puts the segment's next row under the cursor and checks that it
// starts at or after floor; ok is false at the end of the segment.
func (it *ERPLIterator) step() (ok bool, err error) {
	if it.done {
		return false, nil
	}
	if !it.started {
		it.started = true
		ok, err = it.cur.SeekPrefix(it.prefix)
	} else {
		ok, err = it.cur.NextPrefix(it.prefix)
	}
	if err != nil {
		return false, err
	}
	if !ok {
		it.done = true
		return false, nil
	}
	it.RowsRead++
	rest := it.cur.Key()[len(it.prefix):]
	if len(rest) != 8 {
		return false, fmt.Errorf("index: bad ERPL key tail length %d", len(rest))
	}
	if start := beUint64(rest); start < it.floor {
		return false, fmt.Errorf("index: ERPL row at (%d,%d) starts inside the rows before it: the list was not written by one run",
			uint32(start>>32), uint32(start))
	}
	return true, nil
}

// load decodes the row under the cursor into the buffer.
func (it *ERPLIterator) load() error {
	var err error
	it.buf, err = decodeERPLBlockInto(it.buf[:0], it.cur.Value())
	it.pi = 0
	if err != nil {
		it.buf = it.buf[:0]
		return err
	}
	it.floor = it.buf[len(it.buf)-1].docEnd() + 1
	return nil
}

// ready reports whether buf[pi] may be returned, loading the next row once
// the buffer is spent; false without an error is the end of the segment.
func (it *ERPLIterator) ready() (bool, error) {
	if it.pi < len(it.buf) {
		return true, nil
	}
	if ok, err := it.step(); !ok {
		return false, err
	}
	if err := it.load(); err != nil {
		return false, err
	}
	return true, nil
}

// Peek returns the next entry without consuming it.
func (it *ERPLIterator) Peek() (RPLEntry, bool, error) {
	if ok, err := it.ready(); !ok {
		return RPLEntry{}, false, err
	}
	return it.buf[it.pi], true, nil
}

// Next returns the next entry in (doc, endpos) order; ok is false at end.
func (it *ERPLIterator) Next() (RPLEntry, bool, error) {
	if ok, err := it.ready(); !ok {
		return RPLEntry{}, false, err
	}
	e := it.buf[it.pi]
	it.pi++
	return e, true, nil
}

// DrainBelow appends to out every remaining entry whose (doc, end)
// orders strictly before the bound, consuming them. Entries inside an
// already-decoded block cost neither a cursor step nor a heap operation —
// the bulk path Merge's frontier skipping is built on.
func (it *ERPLIterator) DrainBelow(doc, end uint32, out []RPLEntry) ([]RPLEntry, error) {
	bound := uint64(doc)<<32 | uint64(end)
	for {
		if ok, err := it.ready(); !ok {
			return out, err
		}
		i := it.pi
		for i < len(it.buf) && it.buf[i].docEnd() < bound {
			i++
		}
		out = append(out, it.buf[it.pi:i]...)
		it.pi = i
		if i < len(it.buf) {
			return out, nil
		}
	}
}

// SkipTo fast-forwards the iterator so the next entry is the first with
// (doc, end) at or after the target, without decoding fully skipped
// blocks: buffered entries are dropped in place, and when the buffer
// empties each further row whose header bound (the max (doc, end) an ERPL
// block advertises) lies below the target is stepped over undecoded. It
// returns the number of entries skipped without being decoded.
func (it *ERPLIterator) SkipTo(doc, end uint32) (int, error) {
	target := uint64(doc)<<32 | uint64(end)
	skipped := 0
	for {
		for it.pi < len(it.buf) && it.buf[it.pi].docEnd() < target {
			it.pi++
		}
		if it.pi < len(it.buf) {
			return skipped, nil
		}
		if ok, err := it.step(); !ok {
			return skipped, err
		}
		n, maxDoc, maxEnd, err := erplBlockBounds(it.cur.Value())
		if err != nil {
			return skipped, err
		}
		if last := uint64(maxDoc)<<32 | uint64(maxEnd); last < target {
			skipped += n
			it.floor = last + 1
			continue
		}
		// The row reaches the target: decode it and let the drop loop
		// discard its leading entries.
		if err := it.load(); err != nil {
			return skipped, err
		}
	}
}

// TermERPL merges the per-(term, sid) ERPL segments of one term across a
// sid set into a single position-ordered stream — the first merge step of
// Section 4's two-step evaluation. It is the per-term list L_i that the
// Merge algorithm (Figure 3) consumes.
//
// The streams sit in a binary min-heap on their head entries, kept with a
// sift-down written for erplStream: an entry costs no interface dispatch
// and no boxing.
type TermERPL struct {
	h     []erplStream
	iters []ERPLIterator
}

type erplStream struct {
	head RPLEntry
	it   *ERPLIterator
}

// NewTermERPL opens iterators for every sid and primes the merge heap. The
// iterators and their key prefixes are carved from one allocation each: a
// query over a wildcard step opens dozens of streams per term.
func NewTermERPL(s *Store, term string, sids []uint32) (*TermERPL, error) {
	m := &TermERPL{
		h:     make([]erplStream, 0, len(sids)),
		iters: make([]ERPLIterator, len(sids)),
	}
	plen := len(term) + 5
	prefixes := make([]byte, 0, plen*len(sids))
	for i, sid := range sids {
		prefixes = appendERPLSIDPrefix(prefixes, term, sid)
		it := &m.iters[i]
		it.prefix, it.cur = prefixes[i*plen:(i+1)*plen:(i+1)*plen], s.erplCursor(term, sid)
		e, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h = append(m.h, erplStream{head: e, it: it})
		}
	}
	m.heapify()
	return m, nil
}

// heapify orders the streams as a min-heap on their heads.
func (m *TermERPL) heapify() {
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// siftDown restores the heap order below slot i: the stream there sinks
// past every child with a smaller head, the children moving up into the
// hole it leaves.
func (m *TermERPL) siftDown(i int) {
	h := m.h
	if i >= len(h) {
		return
	}
	x := h[i]
	xKey := x.head.docEnd()
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		cKey := h[c].head.docEnd()
		if r := c + 1; r < len(h) {
			if rKey := h[r].head.docEnd(); rKey < cKey {
				c, cKey = r, rKey
			}
		}
		if cKey >= xKey {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// Head returns the next entry across all sids without consuming it, nil
// once every stream is exhausted. It points into the heap: the next call
// that consumes entries invalidates it.
func (m *TermERPL) Head() *RPLEntry {
	if len(m.h) == 0 {
		return nil
	}
	return &m.h[0].head
}

// Advance consumes the head: the top stream's next entry replaces it (or
// the stream drops out at its end) and the heap order is restored. It must
// not be called on an exhausted merge.
func (m *TermERPL) Advance() error {
	top := &m.h[0]
	e, ok, err := top.it.Next()
	if err != nil {
		return err
	}
	if ok {
		top.head = e
	} else {
		last := len(m.h) - 1
		m.h[0] = m.h[last]
		m.h = m.h[:last]
	}
	m.siftDown(0)
	return nil
}

// Next returns the next entry across all sids in (doc, endpos) order.
func (m *TermERPL) Next() (RPLEntry, bool, error) {
	if len(m.h) == 0 {
		return RPLEntry{}, false, nil
	}
	out := m.h[0].head
	if err := m.Advance(); err != nil {
		return RPLEntry{}, false, err
	}
	return out, true, nil
}

// secondHead returns the smallest head excluding the heap top — the point
// up to which the top stream can be drained without consulting the heap.
func (m *TermERPL) secondHead() (RPLEntry, bool) {
	switch len(m.h) {
	case 0, 1:
		return RPLEntry{}, false
	case 2:
		return m.h[1].head, true
	default:
		a, b := m.h[1].head, m.h[2].head
		if CompareDocEnd(b.Doc, b.End, a.Doc, a.End) < 0 {
			return b, true
		}
		return a, true
	}
}

// DrainBelow appends to out every remaining entry whose (doc, end)
// orders strictly before the bound, in stream order, consuming them. The
// top stream is drained in bulk up to min(bound, second head), costing
// one sift per drained run instead of one per entry.
func (m *TermERPL) DrainBelow(doc, end uint32, out []RPLEntry) ([]RPLEntry, error) {
	for len(m.h) > 0 {
		top := m.h[0]
		if CompareDocEnd(top.head.Doc, top.head.End, doc, end) >= 0 {
			break
		}
		bd, be := doc, end
		if s, ok := m.secondHead(); ok && CompareDocEnd(s.Doc, s.End, bd, be) < 0 {
			bd, be = s.Doc, s.End
		}
		out = append(out, top.head)
		var err error
		out, err = top.it.DrainBelow(bd, be, out)
		if err != nil {
			return out, err
		}
		if err := m.Advance(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// SkipTo fast-forwards every sid stream to the first entry at or after
// the target (doc, end), pruning whole blocks by their header bounds. It
// returns the number of entries skipped without being decoded.
func (m *TermERPL) SkipTo(doc, end uint32) (int, error) {
	skipped := 0
	// Streams whose head the skip passed refresh it; exhausted ones drop
	// out; the heap order is restored at the end.
	live := m.h[:0]
	for _, s := range m.h {
		if CompareDocEnd(s.head.Doc, s.head.End, doc, end) < 0 {
			n, err := s.it.SkipTo(doc, end)
			if err != nil {
				return skipped, err
			}
			skipped += n
			e, ok, err := s.it.Next()
			if err != nil {
				return skipped, err
			}
			if !ok {
				continue
			}
			s.head = e
		}
		live = append(live, s)
	}
	m.h = live
	m.heapify()
	return skipped, nil
}

// RowsRead sums the storage rows fetched across every sid stream — the
// cursor-step cost the block encoding amortizes.
func (m *TermERPL) RowsRead() int {
	total := 0
	for i := range m.iters {
		total += m.iters[i].RowsRead
	}
	return total
}

// CompareDocEnd orders two (doc, end) element identities.
func CompareDocEnd(aDoc, aEnd, bDoc, bEnd uint32) int {
	switch {
	case aDoc != bDoc:
		if aDoc < bDoc {
			return -1
		}
		return 1
	case aEnd != bEnd:
		if aEnd < bEnd {
			return -1
		}
		return 1
	default:
		return 0
	}
}
