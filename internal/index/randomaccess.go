package index

import (
	"bytes"
	"encoding/binary"

	"trex/internal/storage"
)

// SpanProbe counts one term's occurrences inside element spans — the
// random access the threshold algorithm uses to complete a candidate's
// score for lists it has not reached under sorted access. A probe owns
// its cursor and key buffer, so a query holds one per term and each Count
// costs a floor-seek into the fragmented posting list, a binary search of
// the fragment's checkpoints and a walk of at most checkpointInterval
// entries per span bound, without allocating.
//
// A SpanProbe is not safe for concurrent use.
type SpanProbe struct {
	cur    *storage.Cursor
	key    []byte // prefix + the 8-byte position tail, rewritten per seek
	prefix []byte // key[:len(term)+1]
}

// NewSpanProbe creates a probe over term's posting list.
func NewSpanProbe(s *Store, term string) *SpanProbe {
	key := postingKey(term, Pos{})
	return &SpanProbe{cur: s.Postings.Cursor(), key: key, prefix: key[:len(key)-8]}
}

// TFInSpan counts the occurrences of term strictly inside the element's
// byte span with a one-shot probe. Callers that probe a term repeatedly
// keep a SpanProbe instead.
func TFInSpan(s *Store, term string, e Element) (int, error) {
	return NewSpanProbe(s, term).Count(e)
}

// Count returns the number of occurrences strictly inside e's byte span.
func (p *SpanProbe) Count(e Element) (int, error) {
	return p.span(e, nil)
}

// seek positions the cursor on the fragment that covers lo: the one whose
// first position is the greatest <= lo (it may hold positions past lo
// though its key precedes it), else the term's first fragment, whose
// positions all follow lo.
func (p *SpanProbe) seek(lo Pos) (bool, error) {
	tail := p.key[len(p.prefix):]
	binary.BigEndian.PutUint32(tail[0:4], lo.Doc)
	binary.BigEndian.PutUint32(tail[4:8], lo.Off)
	ok, err := p.cur.SeekFloor(p.key)
	if err != nil {
		return false, err
	}
	if ok && bytes.HasPrefix(p.cur.Key(), p.prefix) {
		return true, nil
	}
	return p.cur.SeekPrefix(p.prefix)
}

// span counts the positions inside e and, when offs is non-nil, appends
// their offsets to it.
func (p *SpanProbe) span(e Element, offs *[]uint32) (int, error) {
	if e.IsDummy() || e.Length == 0 {
		return 0, nil
	}
	lo := Pos{Doc: e.Doc, Off: e.Start() + 1} // strict containment
	hi := Pos{Doc: e.Doc, Off: e.End}         // exclusive
	ok, err := p.seek(lo)
	tf := 0
	for ok && err == nil {
		var n int
		if n, ok, err = spanInFragment(p.cur.Value(), lo, hi, offs); ok && err == nil {
			ok, err = p.cur.NextPrefix(p.prefix)
		}
		tf += n
	}
	return tf, err
}

// spanInFragment counts the fragment's positions in [lo, hi) and reports
// whether the span may continue into the next fragment (every position
// here was below hi).
func spanInFragment(v []byte, lo, hi Pos, offs *[]uint32) (tf int, more bool, err error) {
	r, err := openFragment(v)
	if err != nil {
		return 0, false, err
	}
	r.jump(lo)
	for r.i < r.n {
		pos, err := r.next()
		if err != nil {
			return 0, false, err
		}
		if !pos.Less(hi) {
			return tf, false, nil
		}
		if pos.Less(lo) {
			continue
		}
		tf++
		if offs != nil {
			*offs = append(*offs, pos.Off)
		} else if tf == 1 {
			// Everything up to the last checkpoint below hi is inside the
			// span: count it without decoding it.
			tf += r.jump(hi)
		}
	}
	return tf, true, nil
}
