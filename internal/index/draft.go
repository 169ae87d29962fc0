package index

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"strings"
)

// ListDraft is an in-memory overlay of a store's list tables and catalog.
// The self-management advisor builds every candidate list into a draft,
// measures the strategies through the draft's View, and writes only the
// lists its plan keeps with Apply: no candidate reaches a B+tree, and a
// re-plan that fails or is cancelled before Apply leaves the store as it
// was.
//
// The draft holds encoded rows, never decoded entries. A term's RPL is
// copied from the committed rows the first time a build touches the
// term; a build then replaces the entries of its sids there, as
// DropList-then-write does in the trees, so the view presents each term's
// RPL with exactly the entries the trees would hold (TA's sorted accesses
// count other sids' entries too; the block layout may differ). An ERPL
// belongs to one (term, sid) pair, so a build replaces it whole and
// undrafted pairs read through. Catalog records of drafted lists shadow
// the committed ones; every other read goes to the store.
//
// A draft is not safe for concurrent Adds; its view may be read
// concurrently between Adds. The store's lists must not change while a
// draft is open: Apply assumes the trees still hold what the draft copied.
type ListDraft struct {
	base  *Store
	view  *Store
	rpl   map[string]*draftTerm
	erpl  map[draftPair][]ListRow // nil for a rebuilt pair without entries
	built map[ListID]CatalogEntry
}

// ListID names one materialized list.
type ListID struct {
	Kind ListKind
	Term string
	SID  uint32
}

type draftPair struct {
	term string
	sid  uint32
}

// draftTerm is one term's drafted RPL: its rows in key order, and — once
// a pass has decoded them — the sids they hold, so a build whose sids are
// all absent skips decoding the term again. oneRun reports that the rows
// are one encoder run, so Apply may write them as they are.
type draftTerm struct {
	rows   []ListRow
	sids   map[uint32]bool
	known  bool
	oneRun bool
}

// errDraftView rejects a write through a draft's view.
var errDraftView = errors.New("index: a list draft's view is read-only")

// NewListDraft opens an empty draft over s.
func NewListDraft(s *Store) *ListDraft {
	d := &ListDraft{
		base:  s,
		rpl:   make(map[string]*draftTerm),
		erpl:  make(map[draftPair][]ListRow),
		built: make(map[ListID]CatalogEntry),
	}
	d.view = &Store{
		DB:        s.DB,
		Elements:  s.Elements,
		Postings:  s.Postings,
		RPLs:      s.RPLs,
		ERPLs:     s.ERPLs,
		TermStats: s.TermStats,
		Meta:      s.Meta,
		Catalog:   s.Catalog,
		seg:       s.seg,
		draft:     d,
	}
	return d
}

// View returns the store as the draft presents it: list cursors and
// catalog reads (IsBuilt, BuiltSize, Covered, ListStat) serve drafted
// lists and fall through to the store for the rest; base tables are the
// store's own. The view is read-only.
func (d *ListDraft) View() *Store { return d.view }

// Add puts a build into the draft, replacing the drafted or committed
// lists of its (term, sid) pairs.
func (d *ListDraft) Add(b *ListBuild) error {
	for j, t := range b.Terms {
		if b.RPL {
			if err := d.replaceRPL(t, b.SIDs, b.Rows[j].RPL); err != nil {
				return err
			}
		}
		if b.ERPL {
			rows := b.Rows[j].ERPL
			for _, sid := range b.SIDs {
				n := 0
				for n < len(rows) && rows[n].Entries[0].SID == sid {
					n++
				}
				d.erpl[draftPair{t, sid}] = keepBytes(rows[:n])
				rows = rows[n:]
			}
		}
	}
	for _, r := range b.Records {
		d.built[ListID{r.Kind, r.Term, r.SID}] = r
	}
	return nil
}

// keepBytes returns the rows without their references to decoded
// entries, so the draft holds encoded bytes only.
func keepBytes(rows []ListRow) []ListRow {
	if len(rows) == 0 {
		return nil
	}
	out := make([]ListRow, len(rows))
	for i, r := range rows {
		out[i] = ListRow{Key: r.Key, Value: r.Value}
	}
	return out
}

// replaceRPL swaps the entries of sids in term's drafted RPL for rows,
// copying the term's committed rows first if no build touched it yet.
func (d *ListDraft) replaceRPL(term string, sids []uint32, rows []ListRow) error {
	dt := d.rpl[term]
	if dt == nil {
		dt = &draftTerm{}
		cur := d.base.rplCursor(term)
		prefix := termPrefix(term)
		ok, err := cur.SeekPrefix(prefix)
		for ; ok; ok, err = cur.NextPrefix(prefix) {
			dt.rows = append(dt.rows, ListRow{Key: bytes.Clone(cur.Key()), Value: bytes.Clone(cur.Value())})
		}
		if err != nil {
			return err
		}
		d.rpl[term] = dt
	}
	rebuilt := func(sid uint32) bool {
		_, ok := slices.BinarySearch(sids, sid)
		return ok
	}
	if !dt.known || slices.ContainsFunc(sids, func(sid uint32) bool { return dt.sids[sid] }) {
		kept := dt.rows[:0]
		var survivors []RPLEntry
		present := make(map[uint32]bool)
		for _, r := range dt.rows {
			entries, err := decodeRPLBlock(r.Value)
			if err != nil {
				return err
			}
			hit := false
			for _, e := range entries {
				if rebuilt(e.SID) {
					hit = true
				} else {
					present[e.SID] = true
				}
			}
			if !hit {
				kept = append(kept, r)
				continue
			}
			for _, e := range entries {
				if !rebuilt(e.SID) {
					survivors = append(survivors, e)
				}
			}
		}
		dt.rows = append(kept, keepBytes(EncodeRPLBlocks(term, survivors))...)
		dt.sids, dt.known = present, true
	}
	for _, r := range rows {
		for _, e := range r.Entries {
			dt.sids[e.SID] = true
		}
	}
	dt.oneRun = len(dt.rows) == 0
	dt.rows = append(dt.rows, keepBytes(rows)...)
	slices.SortFunc(dt.rows, func(a, b ListRow) int { return bytes.Compare(a.Key, b.Key) })
	return nil
}

// record returns the drafted catalog record of a list.
func (d *ListDraft) record(kind ListKind, term string, sid uint32) (CatalogEntry, bool) {
	r, ok := d.built[ListID{kind, term, sid}]
	return r, ok
}

// rplCursor serves term's drafted RPL, or the store's.
func (d *ListDraft) rplCursor(term string) listCursor {
	if dt, ok := d.rpl[term]; ok {
		return &rowCursor{rows: dt.rows}
	}
	return d.base.rplCursor(term)
}

// erplCursor serves the (term, sid) drafted ERPL, or the store's.
func (d *ListDraft) erplCursor(term string, sid uint32) listCursor {
	if rows, ok := d.erpl[draftPair{term, sid}]; ok {
		return &rowCursor{rows: rows}
	}
	return d.base.erplCursor(term, sid)
}

// Apply writes the plan into the store: every drafted list not in drops
// with the catalog record its build made, and drops — drafted or
// committed lists — removed. Each drafted term's RPL rows in the trees
// are replaced by one freshly encoded run of the entries it keeps; a
// committed RPL losing sids has only the blocks holding them re-encoded,
// as DropList does. It returns the number of entries the dropped lists
// held. The caller holds write exclusivity and commits afterwards
// (CommitLists, then the pager flush). The draft must not be used after
// Apply.
func (d *ListDraft) Apply(drops []ListID) (int, error) {
	s := d.base
	if len(drops) == 0 && len(d.rpl) == 0 && len(d.erpl) == 0 && len(d.built) == 0 {
		return 0, nil
	}
	if err := s.noteListChange(); err != nil {
		return 0, err
	}
	dropped := make(map[ListID]bool, len(drops))
	for _, id := range drops {
		dropped[id] = true
	}
	rplRows, rplDropped, err := d.applyRPL(drops)
	if err != nil {
		return 0, err
	}
	erplRows, erplDropped, err := d.applyERPL(drops, dropped)
	if err != nil {
		return 0, err
	}
	if err := s.WriteListRows(KindRPL, rplRows); err != nil {
		return 0, err
	}
	if err := s.WriteListRows(KindERPL, erplRows); err != nil {
		return 0, err
	}
	for _, id := range sortedKeys(d.built, compareListIDs) {
		if dropped[id] {
			continue
		}
		r := d.built[id]
		if err := s.MarkBuilt(r.Kind, r.Term, r.SID, r.Entries, r.Bytes); err != nil {
			return 0, err
		}
	}
	for _, id := range drops {
		if _, err := s.Catalog.Delete(catalogKey(id.Kind, id.Term, id.SID)); err != nil {
			return 0, err
		}
	}
	s.stats.invalidate()
	return rplDropped + erplDropped, nil
}

// applyRPL deletes every drafted term's RPL rows from the tree and returns
// the rows that replace them, and drops the dropped sids of undrafted
// terms in place. It counts the entries of dropped lists.
func (d *ListDraft) applyRPL(drops []ListID) ([]ListRow, int, error) {
	s := d.base
	bySID := make(map[string]map[uint32]bool)
	for _, id := range drops {
		if id.Kind != KindRPL {
			continue
		}
		if bySID[id.Term] == nil {
			bySID[id.Term] = make(map[uint32]bool)
		}
		bySID[id.Term][id.SID] = true
	}
	var rows []ListRow
	total := 0
	for _, term := range sortedKeys(d.rpl, strings.Compare) {
		if _, err := deleteRows(s.RPLs, termPrefix(term), 20, rplRowCount); err != nil {
			return nil, 0, err
		}
		dt, drop := d.rpl[term], bySID[term]
		if dt.oneRun && len(drop) == 0 {
			rows = append(rows, dt.rows...)
			continue
		}
		var entries []RPLEntry
		for _, r := range dt.rows {
			es, err := decodeRPLBlock(r.Value)
			if err != nil {
				return nil, 0, err
			}
			for _, e := range es {
				if drop[e.SID] {
					total++
				} else {
					entries = append(entries, e)
				}
			}
		}
		rows = append(rows, EncodeRPLBlocks(term, entries)...)
	}
	for _, term := range sortedKeys(bySID, strings.Compare) {
		if _, drafted := d.rpl[term]; drafted {
			continue
		}
		drop := bySID[term]
		n, err := s.dropRPLEntries(term, func(sid uint32) bool { return drop[sid] })
		if err != nil {
			return nil, 0, err
		}
		total += n
	}
	return rows, total, nil
}

// applyERPL deletes every drafted (term, sid) ERPL's committed rows and
// returns the drafted rows of the kept ones, and deletes the dropped
// undrafted ones. It counts the entries of dropped lists.
func (d *ListDraft) applyERPL(drops []ListID, dropped map[ListID]bool) ([]ListRow, int, error) {
	s := d.base
	var rows []ListRow
	total := 0
	for _, p := range sortedKeys(d.erpl, comparePairs) {
		if _, err := s.deleteERPLRows(p.term, p.sid); err != nil {
			return nil, 0, err
		}
		if !dropped[ListID{KindERPL, p.term, p.sid}] {
			rows = append(rows, d.erpl[p]...)
			continue
		}
		for _, r := range d.erpl[p] {
			n, err := erplRowCount(r.Value)
			if err != nil {
				return nil, 0, err
			}
			total += n
		}
	}
	for _, id := range drops {
		if _, drafted := d.erpl[draftPair{id.Term, id.SID}]; id.Kind != KindERPL || drafted {
			continue
		}
		n, err := s.deleteERPLRows(id.Term, id.SID)
		if err != nil {
			return nil, 0, err
		}
		total += n
	}
	return rows, total, nil
}

// sortedKeys returns m's keys in cmp order, so Apply writes in the same
// order on every run.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

func comparePairs(a, b draftPair) int {
	if c := strings.Compare(a.term, b.term); c != 0 {
		return c
	}
	return cmp.Compare(a.sid, b.sid)
}

func compareListIDs(a, b ListID) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return comparePairs(draftPair{a.Term, a.SID}, draftPair{b.Term, b.SID})
}

// rowCursor walks drafted rows in key order through the list cursor
// surface the iterators read.
type rowCursor struct {
	rows []ListRow
	i    int
}

func (c *rowCursor) SeekPrefix(prefix []byte) (bool, error) {
	c.i, _ = slices.BinarySearchFunc(c.rows, prefix, func(r ListRow, p []byte) int { return bytes.Compare(r.Key, p) })
	return c.at(prefix), nil
}

func (c *rowCursor) NextPrefix(prefix []byte) (bool, error) {
	c.i++
	return c.at(prefix), nil
}

func (c *rowCursor) at(prefix []byte) bool {
	return c.i < len(c.rows) && bytes.HasPrefix(c.rows[c.i].Key, prefix)
}

func (c *rowCursor) Key() []byte   { return c.rows[c.i].Key }
func (c *rowCursor) Value() []byte { return c.rows[c.i].Value }
