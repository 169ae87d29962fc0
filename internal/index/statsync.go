package index

import (
	"encoding/binary"
	"fmt"

	"trex/internal/score"
	"trex/internal/storage"
)

// Statistics synchronization support for the distributed tier
// (internal/cluster). Shards score locally, so byte-identical
// distributed rankings require every shard to hold the *global*
// collection statistics and term df/cf table. The cluster coordinator
// aggregates each shard's local tables through ForEachTermStat /
// ElementLengthStats and writes the merged result back with
// PutTermStat + PutCollectionStats.

// TermStat is one row of the TermStats table in exported form.
type TermStat struct {
	Term string
	DF   int   // document frequency
	CF   int64 // collection frequency (total occurrences)
}

// ForEachTermStat scans the whole TermStats table in term order.
func (s *Store) ForEachTermStat(fn func(term string, df int, cf int64) error) error {
	c := s.TermStats.Cursor()
	ok, err := c.First()
	for ; ok && err == nil; ok, err = c.Next() {
		v := c.Value()
		if len(v) != 12 {
			return fmt.Errorf("index: bad TermStats value for %q", c.Key())
		}
		df, cf := decodeTermStats(v)
		if err := fn(string(c.Key()), df, cf); err != nil {
			return err
		}
	}
	return err
}

func decodeTermStats(v []byte) (df int, cf int64) {
	_ = v[11]
	df = int(uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3]))
	cf = int64(uint64(v[4])<<56 | uint64(v[5])<<48 | uint64(v[6])<<40 | uint64(v[7])<<32 |
		uint64(v[8])<<24 | uint64(v[9])<<16 | uint64(v[10])<<8 | uint64(v[11]))
	return df, cf
}

// PutTermStat overwrites one term's df/cf row. It leaves the stat memo
// alone: callers that change scoring inputs go through SyncStatistics,
// which invalidates it, and must drop materialized lists whose scores
// embed the old statistics.
func (s *Store) PutTermStat(term string, df int, cf int64) error {
	return s.TermStats.Put([]byte(term), termStatsValue(uint32(df), uint64(cf)))
}

// ElementLengthStats scans the Elements table and returns the exact
// element count and summed length. The stored CollectionStats average
// is truncated to 1/1000 (see encodeStats), so cross-shard aggregation
// must recompute the global average from these exact integer totals —
// the same arithmetic BuildBase uses — or shard scorers would disagree
// with a single engine in the low decimal places.
func (s *Store) ElementLengthStats() (elements int, totalLen int64, err error) {
	c := s.Elements.Cursor()
	ok, err := c.First()
	for ; ok && err == nil; ok, err = c.Next() {
		l, derr := decodeElementsValue(c.Value())
		if derr != nil {
			return 0, 0, derr
		}
		elements++
		totalLen += int64(l)
	}
	return elements, totalLen, err
}

// metaLocalDocsKey tracks the store's OWN document count once the
// collection statistics have been overwritten with global values: a
// synced shard's NumDocs describes the whole corpus, but the dense
// append-only id sequence is shard-local. Absent (the single-engine
// case) the two are the same number and NumDocs serves both roles.
var metaLocalDocsKey = []byte("local-doc-count")

// LocalDocCount returns the number of documents stored HERE: the next
// dense document id AppendDocuments must see. Falls back to the
// collection statistics when no sync ever decoupled the two.
func (s *Store) LocalDocCount() (int, error) {
	v, err := s.Meta.Get(metaLocalDocsKey)
	if err == storage.ErrNotFound {
		st, err := s.CollectionStats()
		if err != nil {
			return 0, err
		}
		return st.NumDocs, nil
	}
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("index: bad local-doc-count value length %d", len(v))
	}
	return int(binary.BigEndian.Uint64(v)), nil
}

// localDocsTracked reports whether the local count has been decoupled
// from the (now global) collection statistics.
func (s *Store) localDocsTracked() (bool, error) {
	_, err := s.Meta.Get(metaLocalDocsKey)
	if err == storage.ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func (s *Store) putLocalDocCount(n int) error {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(n))
	return s.Meta.Put(metaLocalDocsKey, v[:])
}

// localTermStatPrefix shadows the store's OWN term df/cf rows in the
// Meta tree once the serving TermStats table has been overwritten with
// global values: re-aggregating shards after an append must sum local
// contributions, not N copies of the global union.
var localTermStatPrefix = []byte("local-term-stat\x00")

func localTermStatKey(term string) []byte {
	return append(append([]byte{}, localTermStatPrefix...), term...)
}

// LocalTermStats returns the store's own term df/cf rows: the shadow
// copy when a sync decoupled them, the serving table otherwise.
func (s *Store) LocalTermStats() ([]TermStat, error) {
	tracked, err := s.localDocsTracked()
	if err != nil {
		return nil, err
	}
	var out []TermStat
	if !tracked {
		err := s.ForEachTermStat(func(term string, df int, cf int64) error {
			out = append(out, TermStat{Term: term, DF: df, CF: cf})
			return nil
		})
		return out, err
	}
	c := s.Meta.Cursor()
	ok, err := c.SeekPrefix(localTermStatPrefix)
	for ; ok && err == nil; ok, err = c.NextPrefix(localTermStatPrefix) {
		v := c.Value()
		if len(v) != 12 {
			return nil, fmt.Errorf("index: bad local term stat value for %q", c.Key())
		}
		df, cf := decodeTermStats(v)
		out = append(out, TermStat{Term: string(c.Key()[len(localTermStatPrefix):]), DF: df, CF: cf})
	}
	return out, err
}

// BumpLocalTermStat folds an append's df/cf delta into the shadow row
// (no-op when the store is not decoupled — the serving table is the
// local table then and AppendDocuments already updated it).
func (s *Store) bumpLocalTermStat(term string, dfDelta int, cfDelta int64) error {
	key := localTermStatKey(term)
	df, cf := 0, int64(0)
	v, err := s.Meta.Get(key)
	if err == nil {
		if len(v) != 12 {
			return fmt.Errorf("index: bad local term stat value for %q", term)
		}
		df, cf = decodeTermStats(v)
	} else if err != storage.ErrNotFound {
		return err
	}
	return s.Meta.Put(key, termStatsValue(uint32(df+dfDelta), uint64(cf+cfDelta)))
}

// SyncStatistics overwrites the collection statistics and the given
// term df/cf rows, then invalidates the stat memo. The caller holds
// write exclusivity. The first sync freezes the store's local document
// count (see LocalDocCount) before NumDocs starts describing the whole
// corpus instead of this store.
func (s *Store) SyncStatistics(st score.CollectionStats, terms []TermStat) error {
	tracked, err := s.localDocsTracked()
	if err != nil {
		return err
	}
	if !tracked {
		cur, err := s.CollectionStats()
		if err != nil {
			return err
		}
		if err := s.putLocalDocCount(cur.NumDocs); err != nil {
			return err
		}
		// Snapshot the still-local term rows before they are overwritten
		// with global values: later re-aggregations read this shadow.
		err = s.ForEachTermStat(func(term string, df int, cf int64) error {
			return s.Meta.Put(localTermStatKey(term), termStatsValue(uint32(df), uint64(cf)))
		})
		if err != nil {
			return err
		}
	}
	if err := s.PutCollectionStats(st); err != nil {
		return err
	}
	for _, t := range terms {
		if err := s.PutTermStat(t.Term, t.DF, t.CF); err != nil {
			return err
		}
	}
	s.stats.invalidate()
	return nil
}
