package retrieval

import (
	"context"
	"errors"
	"slices"

	"trex/internal/index"
	"trex/internal/score"
)

// MaterializeStats reports what a materialization run built.
type MaterializeStats struct {
	// Entries written per kind.
	RPLEntries  int
	ERPLEntries int
	// Bytes is the exact footprint of the encoded rows (key + value
	// bytes), the advisor's space term.
	RPLBytes  int64
	ERPLBytes int64
	// Rows written per kind; with block encoding a row holds up to
	// index.BlockTargetEntries entries.
	RPLRows  int
	ERPLRows int
	// ERA is the run's ERA pass over the base tables. Its counters are the
	// ones ExhaustiveTopKCtx reports for the same clause (ranking adds none),
	// so a caller pricing ERA right after a build can read them instead of
	// sweeping the base tables again.
	ERA *Stats
}

// ErrNoListKinds rejects a materialization that asks for neither list kind.
var ErrNoListKinds = errors.New("retrieval: materialize needs a list kind (RPL, ERPL or both)")

// WantKinds reports which of the two list kinds kinds asks for, and
// ErrNoListKinds when it asks for neither.
func WantKinds(kinds []index.ListKind) (rpl, erpl bool, err error) {
	for _, k := range kinds {
		switch k {
		case index.KindRPL:
			rpl = true
		case index.KindERPL:
			erpl = true
		}
	}
	if !rpl && !erpl {
		return false, false, ErrNoListKinds
	}
	return rpl, erpl, nil
}

// Materialize builds the redundant (term, sid) lists a clause needs
// (BuildLists) and writes them into the store (index.Store.WriteLists).
// Any (term, sid) list that is already built for a requested kind is
// dropped first, so a rebuild can never leave stale rows behind (a
// rebuilt block's key need not match the stale block's). Each (term, sid)
// ERPL is therefore written by one run, which is what lets its iterator
// walk blocks without merging them.
func Materialize(st *index.Store, sids []uint32, terms []string, sc *score.Scorer, kinds ...index.ListKind) (*MaterializeStats, error) {
	b, ms, err := BuildLists(st, sids, terms, sc, kinds...)
	if err != nil {
		return nil, err
	}
	for _, t := range terms {
		for _, sid := range sids {
			for _, kind := range kinds {
				built, err := st.IsBuilt(kind, t, sid)
				if err != nil {
					return nil, err
				}
				if built {
					if _, err := st.DropList(kind, t, sid); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := st.WriteLists(b); err != nil {
		return nil, err
	}
	return ms, nil
}

// BuildLists encodes the redundant (term, sid) lists a clause needs, by
// running ERA over the base tables and scoring each element — exactly how
// the paper generates and extends the RPLs and ERPLs tables ("TReX also
// uses ERA for generating or extending the RPLs and ERPLs tables"). It
// reads only base tables and writes nothing: the build goes to
// index.Store.WriteLists or into an index.ListDraft.
//
// Every pass over the entries is linear. ERA emits each sid's elements in
// (doc, end) order, so counting the entries of every (term, sid) pair
// first lets each scored entry go straight to its final slot, sids
// ascending within a term: each term's entries come out in ERPL key order.
// RPL key order (score descending, then sid, doc, end) is a stable radix
// sort of that slice on the inverted score (index.RadixScoreOrder). Both
// encoders verify their input order in one pass and would sort entries
// handed to them out of order, so the output never depends on ERA's order.
// Lists are encoded as blocks (see internal/index's block codec), packed
// ~128 entries per row.
//
// kinds selects which of the two list kinds to build; asking for neither
// is ErrNoListKinds, returned before anything is read. The build carries a
// catalog record for every (term, sid) pair, including pairs that
// produced no entries, so coverage checks are exact; each record holds
// the list's entry count and exact encoded byte share, which is what the
// self-management advisor budgets against. The returned stats carry the
// ERA pass's Stats.
func BuildLists(st *index.Store, sids []uint32, terms []string, sc *score.Scorer, kinds ...index.ListKind) (*index.ListBuild, *MaterializeStats, error) {
	wantRPL, wantERPL, err := WantKinds(kinds)
	if err != nil {
		return nil, nil, err
	}
	rows, era, err := ERACtx(context.Background(), st, sids, terms)
	if err != nil {
		return nil, nil, err
	}
	p := layOutPairs(rows, sids, terms, sc)

	ms := &MaterializeStats{ERA: era}
	b := &index.ListBuild{
		Terms: terms,
		Rows:  make([]index.TermRows, len(terms)),
		SIDs:  p.sids,
		RPL:   wantRPL,
		ERPL:  wantERPL,
	}
	// Per-(term, sid) byte shares, indexed as p's pairs are. An ERPL row
	// holds one sid and is its sid's whole; an RPL row mixes sids and
	// attributes its bytes per entry.
	var rplBytes, erplBytes []int64
	// byScore holds every term's entries in RPL order, parallel to
	// p.entries; the radix sort's other buffer is sized for the longest term.
	var byScore, scratch []index.RPLEntry
	if wantRPL {
		rplBytes = make([]int64, len(p.off)-1)
		byScore = make([]index.RPLEntry, len(p.entries))
		longest := 0
		for j := range terms {
			lo, hi := p.bounds(j)
			longest = max(longest, hi-lo)
		}
		scratch = make([]index.RPLEntry, longest)
	}
	if wantERPL {
		erplBytes = make([]int64, len(p.off)-1)
	}
	for j, t := range terms {
		lo, hi := p.bounds(j)
		// ERPL first: should the encoder ever have to restore position
		// order, the radix sort below then reads the restored slice.
		if wantERPL {
			encoded := index.EncodeERPLBlocks(t, p.entries[lo:hi])
			for _, r := range encoded {
				erplBytes[p.pair(j, r.Entries[0].SID)] += int64(len(r.Key) + len(r.Value))
			}
			b.Rows[j].ERPL = encoded
			ms.ERPLRows += len(encoded)
			ms.ERPLBytes += rowBytes(encoded)
		}
		if wantRPL {
			index.RadixScoreOrder(byScore[lo:hi], scratch, p.entries[lo:hi])
			encoded := index.EncodeRPLBlocks(t, byScore[lo:hi])
			for _, r := range encoded {
				for i := range r.Entries {
					rplBytes[p.pair(j, r.Entries[i].SID)] += int64(r.EntryBytes[i])
				}
			}
			b.Rows[j].RPL = encoded
			ms.RPLRows += len(encoded)
			ms.RPLBytes += rowBytes(encoded)
		}
	}
	if wantRPL {
		ms.RPLEntries = len(p.entries)
	}
	if wantERPL {
		ms.ERPLEntries = len(p.entries)
	}
	for j, t := range terms {
		for s, sid := range p.sids {
			i := j*len(p.sids) + s
			n := p.off[i+1] - p.off[i]
			if wantRPL {
				b.Records = append(b.Records, index.CatalogEntry{Kind: index.KindRPL, Term: t, SID: sid, Entries: n, Bytes: rplBytes[i]})
			}
			if wantERPL {
				b.Records = append(b.Records, index.CatalogEntry{Kind: index.KindERPL, Term: t, SID: sid, Entries: n, Bytes: erplBytes[i]})
			}
		}
	}
	return b, ms, nil
}

// rowBytes is the key + value footprint of rows.
func rowBytes(rows []index.ListRow) int64 {
	var n int64
	for _, r := range rows {
		n += int64(len(r.Key) + len(r.Value))
	}
	return n
}

// pairLists holds a clause's scored entries grouped by (term, sid) pair.
// Pair j*len(sids)+s is term j with the s-th smallest distinct sid; its
// entries are entries[off[pair]:off[pair+1]]. Pairs of a term are
// adjacent and ascend by sid, so a term's run is in ERPL key order when
// each sid's entries arrive in (doc, end) order.
type pairLists struct {
	sids    []uint32 // the clause's distinct sids, ascending
	off     []int
	entries []index.RPLEntry
}

// layOutPairs scores ERA's rows into pair order in two passes: one counts
// each pair's entries, one places every entry at its pair's next slot.
// Scores come from hoisted TermScorers, bit-identical to sc.Score.
func layOutPairs(rows []ElementTF, sids []uint32, terms []string, sc *score.Scorer) *pairLists {
	p := &pairLists{sids: slices.Clone(sids)}
	slices.Sort(p.sids) // the engine's sids arrive sorted: a linear check
	p.sids = slices.Compact(p.sids)
	ns := len(p.sids)
	p.off = make([]int, len(terms)*ns+1)
	// rowSlot[r] is row r's sid slot, looked up once for both passes.
	rowSlot := make([]int, len(rows))
	for r := range rows {
		s := p.slot(rows[r].Elem.SID)
		rowSlot[r] = s
		for j, tf := range rows[r].TF {
			if tf != 0 {
				p.off[j*ns+s+1]++
			}
		}
	}
	for i := 1; i < len(p.off); i++ {
		p.off[i] += p.off[i-1]
	}
	p.entries = make([]index.RPLEntry, p.off[len(p.off)-1])
	next := slices.Clone(p.off[:len(p.off)-1])
	ts := make([]score.TermScorer, len(terms))
	for j, t := range terms {
		ts[j] = sc.TermScorer(t)
	}
	for r := range rows {
		el, s := rows[r].Elem, rowSlot[r]
		for j, tf := range rows[r].TF {
			if tf == 0 {
				continue
			}
			at := &next[j*ns+s]
			p.entries[*at] = index.RPLEntry{
				Score:  ts[j].Score(tf, int(el.Length)),
				SID:    el.SID,
				Doc:    el.Doc,
				End:    el.End,
				Length: el.Length,
			}
			*at++
		}
	}
	return p
}

// slot is sid's index among the clause's distinct sids.
func (p *pairLists) slot(sid uint32) int {
	s, _ := slices.BinarySearch(p.sids, sid)
	return s
}

// pair is the index of term j's pair with sid.
func (p *pairLists) pair(j int, sid uint32) int { return j*len(p.sids) + p.slot(sid) }

// bounds delimits term j's entries, every pair of it in sid order:
// p.entries[lo:hi].
func (p *pairLists) bounds(j int) (lo, hi int) {
	ns := len(p.sids)
	return p.off[j*ns], p.off[(j+1)*ns]
}
