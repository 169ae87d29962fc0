package index

import "sync"

// The planner builds a feature vector per query from exact catalog
// numbers — entry counts, byte sizes and block counts for every
// (kind, term, sid) list the query touches, plus the collection
// frequency of each term. Probing the Catalog and TermStats trees for
// those on every query would charge page reads to the plan phase, so
// the store memoizes the lookups here. The cache is invalidated
// wholesale on any write that can change a cached answer (MarkBuilt,
// DropList, term-stat merges); reads fill it lazily, so steady-state
// planning touches no storage pages at all.

// ListStat is the cached catalog record of one (kind, term, sid) list.
type ListStat struct {
	// Built reports the list is materialized; the remaining fields are
	// zero when it is not.
	Built   bool
	Entries int
	Bytes   int64
	// Blocks is the number of block-encoded storage rows the entries
	// amount to at the target block size.
	Blocks int
}

// statCache is the lazily filled, wholesale-invalidated memo of catalog
// and term-stat lookups.
type statCache struct {
	mu    sync.RWMutex
	lists map[string]ListStat
	cfs   map[string]int64
}

// invalidate drops everything; called under the engine's write
// exclusivity whenever the catalog or term stats change.
func (c *statCache) invalidate() {
	c.mu.Lock()
	c.lists = nil
	c.cfs = nil
	c.mu.Unlock()
}

// ListStat returns the catalog record for one list, served from the
// memo when warm. A miss costs one Catalog point read and primes the
// memo for every later caller.
func (s *Store) ListStat(kind ListKind, term string, sid uint32) (ListStat, error) {
	key := string(catalogKey(kind, term, sid))
	c := &s.stats
	c.mu.RLock()
	st, ok := c.lists[key]
	c.mu.RUnlock()
	if ok {
		return st, nil
	}
	entries, bytes, err := s.BuiltSize(kind, term, sid)
	if err != nil {
		return ListStat{}, err
	}
	built, err := s.IsBuilt(kind, term, sid)
	if err != nil {
		return ListStat{}, err
	}
	st = ListStat{Built: built, Entries: entries, Bytes: bytes}
	if entries > 0 {
		st.Blocks = (entries + BlockTargetEntries - 1) / BlockTargetEntries
	}
	c.mu.Lock()
	if c.lists == nil {
		c.lists = make(map[string]ListStat)
	}
	c.lists[key] = st
	c.mu.Unlock()
	return st, nil
}

// CoveredCached is Covered served from the stat cache: whether every
// (term, sid) pair is materialized for kind, with zero page reads when
// the memo is warm.
func (s *Store) CoveredCached(kind ListKind, terms []string, sids []uint32) (bool, error) {
	for _, t := range terms {
		for _, sid := range sids {
			st, err := s.ListStat(kind, t, sid)
			if err != nil {
				return false, err
			}
			if !st.Built {
				return false, nil
			}
		}
	}
	return true, nil
}

// TermCFCached is TermCF served from the stat cache.
func (s *Store) TermCFCached(term string) (int64, error) {
	c := &s.stats
	c.mu.RLock()
	cf, ok := c.cfs[term]
	c.mu.RUnlock()
	if ok {
		return cf, nil
	}
	cf, err := s.TermCF(term)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.cfs == nil {
		c.cfs = make(map[string]int64)
	}
	c.cfs[term] = cf
	c.mu.Unlock()
	return cf, nil
}
