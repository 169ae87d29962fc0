package index

import (
	"fmt"

	"trex/internal/corpus"
	"trex/internal/summary"
	"trex/internal/xmlscan"
)

// AppendStats summarizes an ApplyStaged/AppendDocuments run.
type AppendStats struct {
	Docs     int
	Elements int
	Postings int64
	NewSIDs  int
}

// StagedBatch is the result of StageDocuments: documents parsed and
// tokenized but not yet visible anywhere. Staging is pure — it touches
// no store, no summary, no lock — so an engine can stage a streaming
// batch while queries run and only serialize the (cheap) apply step.
// A batch that fails to stage leaves no trace by construction: rollback
// is "drop the StagedBatch on the floor".
type StagedBatch struct {
	// Format is the universe the documents were parsed in.
	Format corpus.Format
	// Docs are the raw documents (stored verbatim by the engine).
	Docs []corpus.Document
	// Bytes is the total size of the staged document data — the
	// staged-bytes telemetry gauge sums this across pending batches.
	Bytes int64

	roots  []*xmlscan.Node
	groups []xmlscan.TermGroups
}

// Append folds another staged batch onto b (streaming ingest
// accumulates per-document stagings into one commit batch).
func (b *StagedBatch) Append(o *StagedBatch) error {
	if o.Format != b.Format {
		return fmt.Errorf("index: cannot mix %v and %v staged documents", b.Format, o.Format)
	}
	b.Docs = append(b.Docs, o.Docs...)
	b.roots = append(b.roots, o.roots...)
	b.groups = append(b.groups, o.groups...)
	b.Bytes += o.Bytes
	return nil
}

// Renumber assigns the dense document ids first, first+1, ... to the
// batch. Streaming ingest stages documents before their final ids are
// known (another committer may land first); ids are fixed at commit
// time, under the maintenance lock.
func (b *StagedBatch) Renumber(first int) {
	for i := range b.Docs {
		b.Docs[i].ID = first + i
	}
}

// StageDocuments parses a batch in either universe and groups each
// document's terms, on the same worker pool as BuildBase, without
// touching the store. All malformed-input errors surface here, before
// anything is written; the first malformed document in batch order is
// the one reported.
func StageDocuments(f corpus.Format, docs []corpus.Document) (*StagedBatch, error) {
	b := &StagedBatch{
		Format: f,
		Docs:   docs,
		roots:  make([]*xmlscan.Node, len(docs)),
		groups: make([]xmlscan.TermGroups, len(docs)),
	}
	type staged struct {
		root   *xmlscan.Node
		groups xmlscan.TermGroups
	}
	parse := func(p *corpus.Parser, i int) (staged, error) {
		root, groups, err := p.Parse(f, docs[i].Data)
		if err != nil {
			return staged{}, fmt.Errorf("index: parse doc %d: %w", docs[i].ID, err)
		}
		return staged{root, groups}, nil
	}
	fold := func(i int, r staged) error {
		b.roots[i], b.groups[i] = r.root, r.groups
		b.Bytes += int64(len(docs[i].Data))
		return nil
	}
	if err := parseInOrder(len(docs), parse, fold); err != nil {
		return nil, err
	}
	return b, nil
}

// ApplyStaged makes a staged batch visible: summary extension, sid
// assignment, Elements rows, posting fragments, statistics. Document
// ids must continue the existing dense sequence (the collection is
// append-only; ids order all positions, so new fragments sort after
// every existing fragment of their token).
//
// The summary is extended in place with any new label paths; the caller
// owns persisting it (Engine ingest does). Materialized RPL/ERPL lists
// are NOT updated here — their scores also go stale because the
// collection statistics change — so callers must drop them (see
// DropAllLists) or rebuild them afterwards.
func ApplyStaged(s *Store, b *StagedBatch, sum *summary.Summary) (*AppendStats, error) {
	docs := b.Docs
	if len(docs) == 0 {
		return &AppendStats{}, nil
	}
	st, err := s.CollectionStats()
	if err != nil {
		return nil, fmt.Errorf("index: append requires a built base index: %w", err)
	}
	// The dense id sequence continues from the LOCAL document count: on
	// a cluster shard the collection statistics describe the whole
	// corpus (see SyncStatistics), not this store's slice of it.
	next, err := s.LocalDocCount()
	if err != nil {
		return nil, err
	}
	for i, d := range docs {
		if d.ID != next+i {
			return nil, fmt.Errorf("index: document ids must continue the sequence: got %d, want %d", d.ID, next+i)
		}
	}
	oldNodes := sum.NumNodes()
	stats := &AppendStats{Docs: len(docs)}
	var sumLen int64
	postings := make(map[string][]Pos)
	dfDelta := make(map[string]uint32)
	cfDelta := make(map[string]uint64)
	stop, err := s.Stopwords()
	if err != nil {
		return nil, err
	}

	for i, d := range docs {
		root := b.roots[i]
		sum.ExtendWith(root)
		if !sum.SafeForRetrieval() {
			return nil, fmt.Errorf("index: doc %d makes the summary unsafe for retrieval", d.ID)
		}
		type row struct {
			key, val []byte
		}
		var rows []row
		err = sum.AssignDoc(root, func(n *xmlscan.Node, sid int) {
			rows = append(rows, row{
				key: elementsKey(uint32(sid), uint32(d.ID), uint32(n.End)),
				val: elementsValue(uint32(n.Length())),
			})
			sumLen += int64(n.Length())
		})
		if err != nil {
			return nil, fmt.Errorf("index: doc %d: %w", d.ID, err)
		}
		for _, r := range rows {
			if err := s.Elements.Put(r.key, r.val); err != nil {
				return nil, err
			}
			stats.Elements++
		}
		tg := &b.groups[i]
		for gi, t := range tg.Terms {
			if stop[t] {
				continue
			}
			offs := tg.At(gi)
			ps := postings[t]
			for _, off := range offs {
				ps = append(ps, Pos{Doc: uint32(d.ID), Off: off})
			}
			postings[t] = ps
			cfDelta[t] += uint64(len(offs))
			dfDelta[t]++
		}
	}

	// Append posting fragments; all new positions sort after existing ones
	// for their token because document ids are larger.
	for t, ps := range postings {
		stats.Postings += int64(len(ps))
		for lo := 0; lo < len(ps); lo += maxPostingsPerFragment {
			hi := lo + maxPostingsPerFragment
			if hi > len(ps) {
				hi = len(ps)
			}
			frag := ps[lo:hi]
			if err := s.Postings.Put(postingKey(t, frag[0]), postingValue(frag)); err != nil {
				return nil, err
			}
		}
	}

	// Merge term statistics (and drop the planner's memo of them).
	s.stats.invalidate()
	for t := range cfDelta {
		df, err := s.TermDF(t)
		if err != nil {
			return nil, err
		}
		cf, err := s.TermCF(t)
		if err != nil {
			return nil, err
		}
		v := termStatsValue(uint32(df)+dfDelta[t], uint64(cf)+cfDelta[t])
		if err := s.TermStats.Put([]byte(t), v); err != nil {
			return nil, err
		}
	}

	// Update collection statistics (average element length folds in the
	// new elements' total length).
	oldSum := st.AvgElementLen * float64(st.NumElements)
	st.NumDocs += len(docs)
	st.NumElements += stats.Elements
	if st.NumElements > 0 {
		st.AvgElementLen = (oldSum + float64(sumLen)) / float64(st.NumElements)
	}
	if err := s.PutCollectionStats(st); err != nil {
		return nil, err
	}
	// Keep the decoupled local count advancing when a stats sync froze
	// it (no-op for single-engine stores, where NumDocs is the count).
	tracked, err := s.localDocsTracked()
	if err != nil {
		return nil, err
	}
	if tracked {
		if err := s.putLocalDocCount(next + len(docs)); err != nil {
			return nil, err
		}
		for t := range cfDelta {
			if err := s.bumpLocalTermStat(t, int(dfDelta[t]), int64(cfDelta[t])); err != nil {
				return nil, err
			}
		}
	}
	stats.NewSIDs = sum.NumNodes() - oldNodes
	return stats, nil
}

// AppendDocuments stages and applies in one call, in the XML universe —
// the historical API. Engines with a JSON corpus go through
// StageDocuments/ApplyStaged with their own format.
func AppendDocuments(s *Store, docs []corpus.Document, sum *summary.Summary) (*AppendStats, error) {
	b, err := StageDocuments(corpus.FormatXML, docs)
	if err != nil {
		return nil, err
	}
	return ApplyStaged(s, b, sum)
}
