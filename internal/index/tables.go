package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"trex/internal/score"
	"trex/internal/segment"
	"trex/internal/storage"
)

// Table names within the storage DB.
const (
	TableElements     = "Elements"
	TablePostingLists = "PostingLists"
	TableRPLs         = "RPLs"
	TableERPLs        = "ERPLs"
	TableTermStats    = "TermStats"
	TableMeta         = "IndexMeta"
	TableCatalog      = "IndexCatalog"
)

// Store bundles the TReX tables of one collection.
type Store struct {
	DB        *storage.DB
	Elements  *storage.Tree
	Postings  *storage.Tree
	RPLs      *storage.Tree
	ERPLs     *storage.Tree
	TermStats *storage.Tree
	Meta      *storage.Tree
	Catalog   *storage.Tree

	// stopSet caches the persisted stopword set (nil until loaded).
	stopSet map[string]bool

	// stats memoizes catalog and term-stat lookups for the planner's
	// feature extraction (see statcache.go).
	stats statCache

	// seg, when attached, serves committed RPL/ERPL reads from an
	// immutable mmap'd segment; segClean reports whether it reflects the
	// trees (see segment.go). Nil seg = pager backend.
	seg      *segment.Store
	segClean atomic.Bool
}

// Open ensures all TReX tables exist in db and returns the store.
func Open(db *storage.DB) (*Store, error) {
	s := &Store{DB: db}
	for _, t := range []struct {
		name string
		dst  **storage.Tree
	}{
		{TableElements, &s.Elements},
		{TablePostingLists, &s.Postings},
		{TableRPLs, &s.RPLs},
		{TableERPLs, &s.ERPLs},
		{TableTermStats, &s.TermStats},
		{TableMeta, &s.Meta},
		{TableCatalog, &s.Catalog},
	} {
		tree, err := db.EnsureTable(t.name)
		if err != nil {
			return nil, fmt.Errorf("index: open %s: %w", t.name, err)
		}
		*t.dst = tree
	}
	return s, nil
}

// --- collection stats (IndexMeta) ---

var metaStatsKey = []byte("collection-stats")

func encodeStats(st score.CollectionStats) []byte {
	var v [24]byte
	binary.BigEndian.PutUint64(v[0:8], uint64(st.NumDocs))
	binary.BigEndian.PutUint64(v[8:16], uint64(st.NumElements))
	binary.BigEndian.PutUint64(v[16:24], uint64(st.AvgElementLen*1000))
	return v[:]
}

func decodeStats(v []byte) (score.CollectionStats, error) {
	if len(v) != 24 {
		return score.CollectionStats{}, fmt.Errorf("index: bad stats record")
	}
	return score.CollectionStats{
		NumDocs:       int(binary.BigEndian.Uint64(v[0:8])),
		NumElements:   int(binary.BigEndian.Uint64(v[8:16])),
		AvgElementLen: float64(binary.BigEndian.Uint64(v[16:24])) / 1000,
	}, nil
}

// PutCollectionStats records global statistics (written by BuildBase).
func (s *Store) PutCollectionStats(st score.CollectionStats) error {
	return s.Meta.Put(metaStatsKey, encodeStats(st))
}

// CollectionStats loads the global statistics.
func (s *Store) CollectionStats() (score.CollectionStats, error) {
	v, err := s.Meta.Get(metaStatsKey)
	if err != nil {
		return score.CollectionStats{}, err
	}
	return decodeStats(v)
}

// --- term stats ---

func termStatsValue(df uint32, cf uint64) []byte {
	var v [12]byte
	binary.BigEndian.PutUint32(v[0:4], df)
	binary.BigEndian.PutUint64(v[4:12], cf)
	return v[:]
}

// TermDF returns the document frequency of term (0 if unseen).
func (s *Store) TermDF(term string) (int, error) {
	v, err := s.TermStats.Get([]byte(term))
	if err == storage.ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(v) != 12 {
		return 0, fmt.Errorf("index: bad TermStats value for %q", term)
	}
	return int(binary.BigEndian.Uint32(v[0:4])), nil
}

// TermCF returns the collection frequency (total occurrences) of term.
func (s *Store) TermCF(term string) (int64, error) {
	v, err := s.TermStats.Get([]byte(term))
	if err == storage.ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(v) != 12 {
		return 0, fmt.Errorf("index: bad TermStats value for %q", term)
	}
	return int64(binary.BigEndian.Uint64(v[4:12])), nil
}

var metaModelKey = []byte("scoring-model")

// PutScoringModel persists the scoring formula. Must be set before any
// lists are materialized; stored RPL scores embed the model.
func (s *Store) PutScoringModel(m score.Model) error {
	return s.Meta.Put(metaModelKey, []byte(m.String()))
}

// ScoringModel returns the persisted formula (BM25 when unset).
func (s *Store) ScoringModel() (score.Model, error) {
	v, err := s.Meta.Get(metaModelKey)
	if err == storage.ErrNotFound {
		return score.ModelBM25, nil
	}
	if err != nil {
		return score.ModelBM25, err
	}
	return score.ParseModel(string(v))
}

// NewScorer builds a scorer primed with document frequencies for the given
// terms (typically a query's term list), under the persisted model.
func (s *Store) NewScorer(terms []string) (*score.Scorer, error) {
	st, err := s.CollectionStats()
	if err != nil {
		return nil, fmt.Errorf("index: collection stats missing (run BuildBase): %w", err)
	}
	model, err := s.ScoringModel()
	if err != nil {
		return nil, err
	}
	df := make(map[string]int, len(terms))
	for _, t := range terms {
		d, err := s.TermDF(t)
		if err != nil {
			return nil, err
		}
		df[t] = d
	}
	return score.NewScorerWithModel(st, df, model), nil
}

// --- RPL / ERPL writes ---

// WriteListRows writes encoded block rows (from EncodeRPLBlocks /
// EncodeERPLBlocks, possibly spanning several terms) into the kind's
// tree. An empty tree is built through the storage bulk loader — leaves
// packed near-full, no random-insert write amplification; a non-empty
// tree takes ordinary Puts. Rows not already in key order are sorted
// first, which both the bulk loader and Put locality want.
func (s *Store) WriteListRows(kind ListKind, rows []ListRow) error {
	if err := s.noteListChange(); err != nil {
		return err
	}
	tree := s.RPLs
	if kind == KindERPL {
		tree = s.ERPLs
	}
	byKey := func(a, b ListRow) int { return bytes.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(rows, byKey) {
		slices.SortFunc(rows, byKey)
	}
	bl, err := tree.NewBulkLoader(0)
	if err == nil {
		for _, r := range rows {
			if err := bl.Add(r.Key, r.Value); err != nil {
				return err
			}
		}
		return bl.Finish()
	}
	if err != storage.ErrTableExists {
		return err
	}
	for _, r := range rows {
		if err := tree.Put(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// --- materialization catalog ---

// ListKind distinguishes the two redundant top-k index kinds.
type ListKind byte

const (
	// KindRPL marks a score-ordered list (used by TA).
	KindRPL ListKind = 'R'
	// KindERPL marks a position-ordered list (used by Merge).
	KindERPL ListKind = 'E'
)

func (k ListKind) String() string {
	switch k {
	case KindRPL:
		return "RPL"
	case KindERPL:
		return "ERPL"
	default:
		return fmt.Sprintf("ListKind(%c)", byte(k))
	}
}

func catalogKey(kind ListKind, term string, sid uint32) []byte {
	k := make([]byte, 0, len(term)+6)
	k = append(k, byte(kind))
	k = append(k, term...)
	k = append(k, 0)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], sid)
	return append(k, tail[:]...)
}

// MarkBuilt records that the (kind, term, sid) list is materialized, with
// its entry count and approximate byte size (the advisor's space term).
func (s *Store) MarkBuilt(kind ListKind, term string, sid uint32, entries int, bytes int64) error {
	var v [16]byte
	binary.BigEndian.PutUint64(v[0:8], uint64(entries))
	binary.BigEndian.PutUint64(v[8:16], uint64(bytes))
	s.stats.invalidate()
	return s.Catalog.Put(catalogKey(kind, term, sid), v[:])
}

// IsBuilt reports whether the (kind, term, sid) list is materialized.
func (s *Store) IsBuilt(kind ListKind, term string, sid uint32) (bool, error) {
	return s.Catalog.Has(catalogKey(kind, term, sid))
}

// BuiltSize returns the recorded entry count and byte size of a
// materialized list; (0, 0) if absent.
func (s *Store) BuiltSize(kind ListKind, term string, sid uint32) (int, int64, error) {
	v, err := s.Catalog.Get(catalogKey(kind, term, sid))
	if err == storage.ErrNotFound {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if len(v) != 16 {
		return 0, 0, fmt.Errorf("index: bad catalog value")
	}
	return int(binary.BigEndian.Uint64(v[0:8])), int64(binary.BigEndian.Uint64(v[8:16])), nil
}

// CatalogEntry describes one materialized list.
type CatalogEntry struct {
	Kind    ListKind
	Term    string
	SID     uint32
	Entries int
	Bytes   int64
}

// CatalogEntries lists every materialized (kind, term, sid) list.
func (s *Store) CatalogEntries() ([]CatalogEntry, error) {
	var out []CatalogEntry
	cur := s.Catalog.Cursor()
	ok, err := cur.First()
	for ; ok; ok, err = cur.Next() {
		k := cur.Key()
		if len(k) < 6 {
			continue
		}
		e := CatalogEntry{Kind: ListKind(k[0])}
		rest := k[1:]
		zero := -1
		for i := range rest {
			if rest[i] == 0 {
				zero = i
				break
			}
		}
		if zero < 0 || len(rest)-zero-1 != 4 {
			continue
		}
		e.Term = string(rest[:zero])
		e.SID = binary.BigEndian.Uint32(rest[zero+1:])
		v := cur.Value()
		if len(v) == 16 {
			e.Entries = int(binary.BigEndian.Uint64(v[0:8]))
			e.Bytes = int64(binary.BigEndian.Uint64(v[8:16]))
		}
		out = append(out, e)
	}
	return out, err
}

// Covered reports whether every (term, sid) pair is materialized for kind —
// the condition under which TA (KindRPL) or Merge (KindERPL) can evaluate
// the clause.
func (s *Store) Covered(kind ListKind, terms []string, sids []uint32) (bool, error) {
	for _, t := range terms {
		for _, sid := range sids {
			ok, err := s.IsBuilt(kind, t, sid)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}
