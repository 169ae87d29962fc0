package trex

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"trex/internal/corpus"
	"trex/internal/summary"
)

// TestCreateIsDeterministic: building one collection twice gives the
// same database file, byte for byte, in both document universes. The
// summary snapshot used to gob-encode its alias map in map order.
func TestCreateIsDeterministic(t *testing.T) {
	for _, col := range []*corpus.Collection{corpus.GenerateIEEE(120, 5), corpus.GenerateJSON(120, 5)} {
		var first [sha256.Size]byte
		for i := 0; i < 3; i++ {
			path := filepath.Join(t.TempDir(), "c.trexdb")
			eng, err := Create(path, col, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if i == 0 {
				first = sum
			} else if sum != first {
				t.Fatalf("%v build %d: file sha256 %x, first build %x", col.Format, i, sum, first)
			}
		}
	}
}

// legacySnapshot is the summary snapshot as it was written while the
// alias map was gob-encoded as a map: same field names, no AliasPairs.
type legacySnapshot struct {
	Kind    summary.Kind
	K       int
	Aliases map[string]string
	Safe    bool
	Nodes   []legacySnapshotNode
}

type legacySnapshotNode struct {
	Label      string
	Path       []string
	Parent     int
	Children   []int
	ExtentSize int
}

// TestOpenReadsMapEncodedAliases: a database whose summary snapshot
// holds the alias map in the old map encoding still opens, with its
// aliases, and answers as it did.
func TestOpenReadsMapEncodedAliases(t *testing.T) {
	col := corpus.GenerateIEEE(40, 6)
	path := filepath.Join(t.TempDir(), "legacy.trexdb")
	eng, err := Create(path, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	const q = `//article//sec[about(., ontologies case study)]`
	want, err := eng.Query(q, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	wantAliases := maps.Clone(eng.sum.Aliases)
	if len(wantAliases) == 0 {
		t.Fatal("collection has no aliases to encode")
	}
	// Rewrite the stored snapshot in the old encoding.
	legacy := legacySnapshot{Kind: eng.sum.Kind, K: eng.sum.K, Aliases: eng.sum.Aliases, Safe: eng.sum.SafeForRetrieval()}
	for _, n := range eng.sum.Nodes {
		legacy.Nodes = append(legacy.Nodes, legacySnapshotNode{
			Label: n.Label, Path: n.Path, Parent: n.Parent, Children: n.Children, ExtentSize: n.ExtentSize,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ok, err := eng.store.Meta.Delete([]byte(fmt.Sprintf("%s%08d", metaSummaryPrefix, i)))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	data := buf.Bytes()
	for i := 0; i*summaryChunkSize < len(data); i++ {
		chunk := data[i*summaryChunkSize : min((i+1)*summaryChunkSize, len(data))]
		if err := eng.store.Meta.Put([]byte(fmt.Sprintf("%s%08d", metaSummaryPrefix, i)), chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !maps.Equal(eng.sum.Aliases, wantAliases) {
		t.Fatalf("aliases after reopen %v, want %v", eng.sum.Aliases, wantAliases)
	}
	got, err := eng.Query(q, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) == 0 || len(got.Answers) != len(want.Answers) {
		t.Fatalf("%d answers after reopen, %d before", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("answer %d after reopen %+v, before %+v", i, got.Answers[i], want.Answers[i])
		}
	}
}

// countTokens is the number of term occurrences in a collection.
func countTokens(t testing.TB, col *corpus.Collection) int {
	var p corpus.Parser
	n := 0
	for _, d := range col.Docs {
		_, tg, err := p.Parse(col.Format, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		n += len(tg.Offsets)
	}
	return n
}

// TestBuildBaseAllocationCeiling holds the base build to at most one
// heap allocation per token: Create over the 1,500-document IEEE
// collection paper_grid loads. The build used to allocate a string per
// token and keep every document's token slice until the last document
// was parsed (2.58 allocations per token).
func TestBuildBaseAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1,500-document collection")
	}
	col := corpus.Generate(corpus.Config{Style: corpus.StyleIEEE, Docs: 1500, Seed: 20070415})
	tokens := countTokens(t, col)
	path := filepath.Join(t.TempDir(), "ceiling.trexdb")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, err := Create(path, col, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	perToken := float64(after.Mallocs-before.Mallocs) / float64(tokens)
	t.Logf("%d tokens, %.2f allocations and %.0f bytes allocated per token",
		tokens, perToken, float64(after.TotalAlloc-before.TotalAlloc)/float64(tokens))
	if perToken > 1 {
		t.Fatalf("Create made %.2f allocations per token, want at most 1", perToken)
	}
}
