package faultinject_test

// Crash-recovery loops for the streaming ingest path: documents are
// staged one at a time (exactly as an engine Ingestor accumulates them),
// applied, and committed — and a kill at EVERY write boundary must leave
// the reopened store at exactly the pre-batch or post-batch state. The
// multi-batch loop additionally proves batch atomicity composes: a crash
// during batch 2 lands on post-batch-1, never between batches' halves.

import (
	"fmt"
	"testing"

	"trex/internal/corpus"
	"trex/internal/faultinject"
	"trex/internal/index"
	"trex/internal/oracle/gen"
	"trex/internal/storage"
	"trex/internal/summary"
)

// stageIngest mirrors Ingestor.Add + Commit at the index layer: each
// document is staged individually, appended into one pending batch,
// renumbered at commit time, applied, and flushed once.
func stageIngest(db *storage.DB, f corpus.Format, docs []corpus.Document, baseCol *corpus.Collection) error {
	if _, err := applyIngest(db, f, docs, baseCol); err != nil {
		return err
	}
	return db.Flush()
}

// applyIngest is stageIngest up to, but not including, the flush.
func applyIngest(db *storage.DB, f corpus.Format, docs []corpus.Document, baseCol *corpus.Collection) (*index.Store, error) {
	st, err := index.Open(db)
	if err != nil {
		return nil, err
	}
	// Rebuild the summary from the base collection each attempt:
	// ApplyStaged extends it in place, so it cannot be shared across
	// crash iterations.
	sum, err := summary.Build(baseCol, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		return nil, err
	}
	var pending *index.StagedBatch
	for _, d := range docs {
		b, err := index.StageDocuments(f, []corpus.Document{{Data: d.Data}})
		if err != nil {
			return nil, err
		}
		if pending == nil {
			pending = b
		} else if err := pending.Append(b); err != nil {
			return nil, err
		}
	}
	next, err := st.LocalDocCount()
	if err != nil {
		return nil, err
	}
	pending.Renumber(next)
	if _, err := index.ApplyStaged(st, pending, sum); err != nil {
		return nil, err
	}
	return st, nil
}

// TestCrashLoopStagedIngest kills the staged-ingest commit at every
// write boundary over an XML base image.
func TestCrashLoopStagedIngest(t *testing.T) {
	baseCol := &corpus.Collection{Docs: genDocs(42, 0, 24)}
	runCrashLoop(t, buildBaseImage(t), func(db *storage.DB) error {
		return stageIngest(db, corpus.FormatXML, genDocs(42, 24, 28), baseCol)
	})
}

// buildJSONBaseImage commits a base index over a seeded JSON collection
// (with the persisted format marker) and returns the disk image.
func buildJSONBaseImage(t *testing.T, col *corpus.Collection) *faultinject.Disk {
	t.Helper()
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		t.Fatal(err)
	}
	d := faultinject.NewDisk(1)
	db, err := storage.NewDB(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := index.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutCorpusFormat(col.Format); err != nil {
		t.Fatal(err)
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// jsonDocs renumbers a window of seeded JSON documents to dense ids
// starting at lo.
func jsonDocs(seed int64, lo, hi int) []corpus.Document {
	var docs []corpus.Document
	for d := lo; d < hi; d++ {
		doc := gen.JSONDoc(seed, d)
		doc.ID = d
		docs = append(docs, doc)
	}
	return docs
}

// TestCrashLoopStagedIngestJSON is the same loop in the JSON universe:
// staging parses through the jsoncorpus mapping, and atomicity must be
// identical — the universe a document comes from cannot change what a
// crash can expose.
func TestCrashLoopStagedIngestJSON(t *testing.T) {
	baseCol := &corpus.Collection{Docs: jsonDocs(42, 0, 24), Format: corpus.FormatJSON}
	pre := buildJSONBaseImage(t, baseCol)
	runCrashLoop(t, pre, func(db *storage.DB) error {
		return stageIngest(db, corpus.FormatJSON, jsonDocs(42, 24, 28), baseCol)
	})
}

// TestCrashLoopStagedIngestTwoBatches commits two staged batches in one
// op, crashing at every write boundary across both. Every survivor must
// reopen at exactly pre, post-batch-1, or post-batch-2 — a crash inside
// batch 2 rolls back to the batch-1 commit point, never further and
// never partially.
func TestCrashLoopStagedIngestTwoBatches(t *testing.T) {
	pre := buildBaseImage(t)
	baseCol := &corpus.Collection{Docs: genDocs(42, 0, 24)}
	batch1 := func(db *storage.DB) error {
		return stageIngest(db, corpus.FormatXML, genDocs(42, 24, 28), baseCol)
	}
	batch2 := func(db *storage.DB) error {
		// Batch 2's summary baseline includes batch 1 (it is committed by
		// the time batch 2 stages).
		col2 := &corpus.Collection{Docs: genDocs(42, 0, 28)}
		return stageIngest(db, corpus.FormatXML, genDocs(42, 28, 31), col2)
	}
	op := func(db *storage.DB) error {
		if err := batch1(db); err != nil {
			return err
		}
		return batch2(db)
	}

	preDump := dumpImage(t, pre)

	// Clean runs pin the three legal states and the total write budget.
	mid := pre.Snapshot()
	db, err := storage.OpenBackend(mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch1(db); err != nil {
		t.Fatalf("clean batch 1: %v", err)
	}
	midDump := dumpDB(t, db)

	clean := pre.Snapshot()
	db, err = storage.OpenBackend(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := op(db); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := clean.Writes()
	postDump := dumpImage(t, clean)
	if preDump == midDump || midDump == postDump {
		t.Fatal("batches are no-ops — the loop would prove nothing")
	}

	var atPre, atMid, atPost int
	for k := 0; k <= total; k++ {
		img := pre.Snapshot()
		db, err := storage.OpenBackend(img, nil)
		if err != nil {
			t.Fatalf("k=%d: open pre-image: %v", k, err)
		}
		img.CrashAfterWrites(k)
		opErr := op(db) // the process "dies" here: no Close, no cleanup
		if k == total && opErr != nil {
			t.Fatalf("k=%d/%d: op failed with the full write budget: %v", k, total, opErr)
		}

		surv := img.Snapshot()
		rdb, err := storage.OpenBackend(surv, nil)
		if err != nil {
			t.Fatalf("k=%d/%d: reopen after crash: %v", k, total, err)
		}
		got := dumpDB(t, rdb)
		switch got {
		case preDump:
			atPre++
		case midDump:
			atMid++
		case postDump:
			atPost++
		default:
			t.Fatalf("k=%d/%d: reopened store is not pre, post-batch-1, or post-batch-2", k, total)
		}
		if k == total && got != postDump {
			t.Fatalf("k=%d: full write budget must yield the post-batch-2 state", k)
		}
	}
	if atMid == 0 {
		t.Fatal("no crash point ever landed on post-batch-1: batch 1's commit never became durable before batch 2")
	}
	if atPost == 0 {
		t.Fatal("no crash point ever recovered to post-batch-2")
	}
	t.Logf("%d boundaries: %d pre, %d post-batch-1, %d post-batch-2", total+1, atPre, atMid, atPost)
}

// TestCrashLoopStagedIngestDropsLists is the engine's whole commit: the
// batch is applied over a store that holds materialized lists, every list
// is dropped in one pass (their scores are stale), and one flush commits
// both. A kill at any write boundary must leave the lists and the base
// tables together at the pre-batch state or together at the post-batch
// state.
func TestCrashLoopStagedIngestDropsLists(t *testing.T) {
	baseCol := &corpus.Collection{Docs: genDocs(42, 0, 24)}
	pre := buildBaseImage(t)
	db, err := storage.OpenBackend(pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := opMaterialize(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	runCrashLoop(t, pre, func(db *storage.DB) error {
		st, err := applyIngest(db, corpus.FormatXML, genDocs(42, 24, 28), baseCol)
		if err != nil {
			return err
		}
		if n, err := index.DropAllLists(st); err != nil || n == 0 {
			return fmt.Errorf("DropAllLists = (%d, %v), want the materialized entries", n, err)
		}
		return db.Flush()
	})
}
