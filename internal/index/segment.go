package index

import (
	"encoding/binary"
	"fmt"

	"trex/internal/segment"
	"trex/internal/storage"
)

// The segment list backend serves committed RPL/ERPL reads from an
// immutable memory-mapped segment (internal/segment) instead of the
// pager's B+trees. The trees stay the write path and the source of
// truth: every list mutation lands there first and marks the segment
// stale, so reads between a mutation and the next CommitLists fall back
// to the trees (read-your-writes for a Materialize or drop that has not
// committed yet; the advisor measures in a ListDraft and mutates only in
// its final apply step). CommitLists rebuilds the segment from the trees,
// stamps it with the list epoch, and flips the generation — after which
// cursors are served decode-free from the mapping again.
//
// Consistency across crashes hangs on the epoch: it is bumped (in the
// IndexMeta tree, so it commits atomically with the list change) on the
// first mutation after a commit, and the segment is stamped with it.
// AttachSegments serves an existing generation only when its stamp
// equals the committed epoch; any mismatch — a crash between the
// manifest swap and the pager flush, a flush that bypassed CommitLists —
// rebuilds from the trees. A crash between the segment fsync and the
// manifest swap leaves the manifest naming the old generation, whose
// stamp still matches the old committed epoch: the old generation
// serves intact.
var (
	metaListBackendKey = []byte("list-backend")
	metaListEpochKey   = []byte("list-epoch")
)

// ListBackendSegment is the persisted marker naming the segment backend;
// absence of the marker means the pager backend.
const ListBackendSegment = "segment"

// PutListBackend persists the list-backend marker so Open auto-attaches
// segments on the next start.
func (s *Store) PutListBackend(name string) error {
	return s.Meta.Put(metaListBackendKey, []byte(name))
}

// ListBackend returns the persisted marker ("" = pager).
func (s *Store) ListBackend() (string, error) {
	v, err := s.Meta.Get(metaListBackendKey)
	if err == storage.ErrNotFound {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return string(v), nil
}

// listEpoch reads the committed-or-staged list epoch (0 when unset).
func (s *Store) listEpoch() (uint64, error) {
	v, err := s.Meta.Get(metaListEpochKey)
	if err == storage.ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("index: bad list-epoch value")
	}
	return binary.BigEndian.Uint64(v), nil
}

// ListEpoch exposes the committed-or-staged list epoch: it advances on
// the first list mutation after each segment commit, and it is the
// persisted anchor the engine's in-memory write epoch (the result
// cache's invalidation key) is seeded from at open.
func (s *Store) ListEpoch() (uint64, error) { return s.listEpoch() }

func (s *Store) putListEpoch(e uint64) error {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], e)
	return s.Meta.Put(metaListEpochKey, v[:])
}

// AttachSegments wires a segment store under the RPL/ERPL read path. If
// the store's current generation is stamped with the committed list
// epoch it serves immediately; otherwise (fresh directory, crashed
// commit, restored backup) the segment is rebuilt from the trees first.
func (s *Store) AttachSegments(ss *segment.Store) error {
	s.seg = ss
	epoch, err := s.listEpoch()
	if err != nil {
		return err
	}
	if cur := ss.Current(); cur != nil && cur.Epoch() == epoch {
		s.segClean.Store(true)
		return nil
	}
	return s.CommitLists()
}

// Segments returns the attached segment store (nil for the pager
// backend).
func (s *Store) Segments() *segment.Store { return s.seg }

// PinLists / UnpinLists bracket a read operation: while pinned, no
// segment generation is unmapped, so cursors stay valid across a
// concurrent commit. No-ops on the pager backend.
func (s *Store) PinLists() {
	if s.seg != nil {
		s.seg.Pin()
	}
}

func (s *Store) UnpinLists() {
	if s.seg != nil {
		s.seg.Unpin()
	}
}

// CloseSegments releases the segment mappings (after the DB is done).
func (s *Store) CloseSegments() error {
	if s.seg == nil {
		return nil
	}
	return s.seg.Close()
}

// noteListChange marks the segment stale ahead of a list mutation. The
// first mutation after a commit also bumps the epoch in IndexMeta, so
// whatever flush eventually persists the mutation persists the new epoch
// with it and the now-stale generation can never be mistaken for
// current after a restart.
func (s *Store) noteListChange() error {
	if s.draft != nil {
		return errDraftView
	}
	if s.seg == nil {
		return nil
	}
	if !s.segClean.CompareAndSwap(true, false) {
		return nil // already stale; epoch already bumped
	}
	epoch, err := s.listEpoch()
	if err != nil {
		return err
	}
	return s.putListEpoch(epoch + 1)
}

// CommitLists publishes the trees' current RPL/ERPL rows as the next
// segment generation: stream both trees into a fresh segment, fsync,
// flip the manifest. The engine calls it at each maintenance commit
// point, just before the pager flush. No-op on the pager backend.
func (s *Store) CommitLists() error {
	if s.seg == nil {
		return nil
	}
	epoch, err := s.listEpoch()
	if err != nil {
		return err
	}
	err = s.seg.Commit(epoch, func(w *segment.Writer) error {
		for _, t := range []struct {
			name string
			tree *storage.Tree
		}{
			{TableRPLs, s.RPLs},
			{TableERPLs, s.ERPLs},
		} {
			w.BeginTable(t.name)
			cur := t.tree.Cursor()
			ok, err := cur.First()
			for ; ok; ok, err = cur.Next() {
				if err := w.Append(cur.Key(), cur.Value()); err != nil {
					return err
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.segClean.Store(true)
	return nil
}

// rplCursor returns the cursor term's RPL is read through: the draft's
// rows on a draft view, else the mapped segment when it is attached and
// in sync with the trees, the pager tree otherwise.
func (s *Store) rplCursor(term string) listCursor {
	if s.draft != nil {
		return s.draft.rplCursor(term)
	}
	if s.seg != nil && s.segClean.Load() {
		if c := s.seg.ListCursor(TableRPLs); c != nil {
			return c
		}
	}
	return s.RPLs.Cursor()
}

// erplCursor is rplCursor for the (term, sid) ERPL.
func (s *Store) erplCursor(term string, sid uint32) listCursor {
	if s.draft != nil {
		return s.draft.erplCursor(term, sid)
	}
	if s.seg != nil && s.segClean.Load() {
		if c := s.seg.ListCursor(TableERPLs); c != nil {
			return c
		}
	}
	return s.ERPLs.Cursor()
}

// IOStat is a combined I/O snapshot across both read backends, so
// per-query attribution (retrieval.Stats, trace spans) stays honest when
// list reads bypass the pager.
type IOStat struct {
	Storage storage.Stats
	// SegmentRows / SegmentBytes count rows and key+value bytes served
	// from the mapped segment.
	SegmentRows  uint64
	SegmentBytes uint64
	// SegmentSwaps counts generation flips; a delta > 0 inside a
	// measurement window taints exactness the way pager writes do.
	SegmentSwaps uint64
}

// IOStats snapshots the pager and segment counters together.
func (s *Store) IOStats() IOStat {
	st := IOStat{Storage: s.DB.Stats()}
	if s.seg != nil {
		st.SegmentRows = s.seg.RowsRead()
		st.SegmentBytes = s.seg.BytesRead()
		st.SegmentSwaps = s.seg.Swaps()
	}
	return st
}

// Sub returns the counter delta a - b.
func (a IOStat) Sub(b IOStat) IOStat {
	return IOStat{
		Storage:      a.Storage.Sub(b.Storage),
		SegmentRows:  a.SegmentRows - b.SegmentRows,
		SegmentBytes: a.SegmentBytes - b.SegmentBytes,
		SegmentSwaps: a.SegmentSwaps - b.SegmentSwaps,
	}
}
