package index

import (
	"slices"

	"trex/internal/storage"
)

// DropList removes every entry of the (kind, term, sid) list and its
// catalog record, returning the number of entries deleted. The
// self-managing advisor uses this to reclaim lists that were materialized
// for measurement but not selected by the plan, and Materialize uses it
// to clear a stale list before rebuilding it.
//
// ERPL blocks hold a single sid, recoverable from the key, so they are
// deleted whole. RPL blocks may mix sids (score order interleaves them);
// a block containing the target sid is deleted and its surviving entries
// are re-encoded into fresh blocks.
func (s *Store) DropList(kind ListKind, term string, sid uint32) (int, error) {
	if err := s.noteListChange(); err != nil {
		return 0, err
	}
	if kind == KindERPL {
		return s.dropERPL(term, sid)
	}
	return s.dropRPL(term, sid)
}

func (s *Store) dropERPL(term string, sid uint32) (int, error) {
	// ERPL keys are term \0 sid doc end, so the sid's rows are exactly the
	// (doc, end) tails under its prefix; no other sid's row is visited.
	// Collect matching keys first: deleting while iterating would
	// invalidate the cursor.
	var keys [][]byte
	dropped := 0
	prefix := erplSIDPrefix(term, sid)
	cur := s.ERPLs.Cursor()
	ok, err := cur.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	for ; ok; ok, err = cur.NextPrefix(prefix) {
		if len(cur.Key()) != len(prefix)+8 {
			continue
		}
		n, _, _, err := erplBlockBounds(cur.Value())
		if err != nil {
			return 0, err
		}
		dropped += n
		keys = append(keys, append([]byte(nil), cur.Key()...))
	}
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, err := s.ERPLs.Delete(k); err != nil {
			return 0, err
		}
	}
	s.stats.invalidate()
	if _, err := s.Catalog.Delete(catalogKey(KindERPL, term, sid)); err != nil {
		return 0, err
	}
	return dropped, nil
}

func (s *Store) dropRPL(term string, sid uint32) (int, error) {
	var keys [][]byte
	var leftovers []RPLEntry
	dropped := 0
	prefix := termPrefix(term)
	cur := s.RPLs.Cursor()
	ok, err := cur.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	for ; ok; ok, err = cur.NextPrefix(prefix) {
		if len(cur.Key()) != len(prefix)+20 {
			continue
		}
		entries, err := decodeRPLBlock(cur.Value())
		if err != nil {
			return 0, err
		}
		if !slices.ContainsFunc(entries, func(e RPLEntry) bool { return e.SID == sid }) {
			continue
		}
		keys = append(keys, append([]byte(nil), cur.Key()...))
		for _, e := range entries {
			if e.SID == sid {
				dropped++
			} else {
				leftovers = append(leftovers, e)
			}
		}
	}
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, err := s.RPLs.Delete(k); err != nil {
			return 0, err
		}
	}
	if len(leftovers) > 0 {
		// Surviving entries from deleted blocks go back as fresh blocks.
		// Their keys cannot collide with remaining rows: a first-entry key
		// equal to a surviving row's key would mean the entry was stored
		// twice.
		for _, r := range EncodeRPLBlocks(term, leftovers) {
			if err := s.RPLs.Put(r.Key, r.Value); err != nil {
				return 0, err
			}
		}
	}
	s.stats.invalidate()
	if _, err := s.Catalog.Delete(catalogKey(KindRPL, term, sid)); err != nil {
		return 0, err
	}
	return dropped, nil
}

// DropAllLists removes every materialized RPL/ERPL list and its catalog
// entry, returning the number of list entries deleted. Used after
// ApplyStaged, when all stored scores are stale. Nothing survives, so
// unlike DropList no row is decoded or re-encoded: each tree is emptied
// after one cursor pass that takes the entry counts from the row headers.
func DropAllLists(s *Store) (int, error) {
	total := 0
	for _, t := range []struct {
		tree    *storage.Tree
		entries func(v []byte) (int, error)
	}{
		{s.RPLs, rplRowCount},
		{s.ERPLs, func(v []byte) (int, error) {
			n, _, _, err := erplBlockBounds(v)
			return n, err
		}},
		{s.Catalog, func([]byte) (int, error) { return 0, nil }},
	} {
		// Collect the keys first: deleting while iterating would
		// invalidate the cursor.
		var keys [][]byte
		cur := t.tree.Cursor()
		ok, err := cur.First()
		for ; ok; ok, err = cur.Next() {
			n, err := t.entries(cur.Value())
			if err != nil {
				return total, err
			}
			total += n
			keys = append(keys, append([]byte(nil), cur.Key()...))
		}
		if err != nil {
			return total, err
		}
		if len(keys) == 0 {
			continue
		}
		// Only the first call after a segment commit does anything.
		if err := s.noteListChange(); err != nil {
			return total, err
		}
		for _, k := range keys {
			if _, err := t.tree.Delete(k); err != nil {
				return total, err
			}
		}
	}
	s.stats.invalidate()
	return total, nil
}
