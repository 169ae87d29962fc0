package summary

import (
	"bytes"
	"encoding/gob"
	"maps"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/xmlscan"
)

func TestSnapshotRoundTrip(t *testing.T) {
	col := corpus.GenerateIEEE(10, 4)
	orig, err := Build(col, Options{Kind: KindIncoming, Aliases: col.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Summary
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.NumNodes() != orig.NumNodes() {
		t.Fatalf("nodes = %d, want %d", restored.NumNodes(), orig.NumNodes())
	}
	if restored.SafeForRetrieval() != orig.SafeForRetrieval() {
		t.Fatal("safety flag lost")
	}
	if restored.Kind != orig.Kind {
		t.Fatal("kind lost")
	}
	for i := range orig.Nodes {
		a, b := orig.Nodes[i], restored.Nodes[i]
		if a.SID != b.SID || a.Label != b.Label ||
			strings.Join(a.Path, "/") != strings.Join(b.Path, "/") ||
			a.Parent != b.Parent || a.ExtentSize != b.ExtentSize {
			t.Fatalf("node %d differs: %+v vs %+v", i, a, b)
		}
	}
	// The restored summary must assign identical sids to documents.
	root, err := xmlscan.Parse(col.Docs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	var origSIDs, restSIDs []int
	if err := orig.AssignDoc(root, func(_ *xmlscan.Node, sid int) {
		origSIDs = append(origSIDs, sid)
	}); err != nil {
		t.Fatal(err)
	}
	if err := restored.AssignDoc(root, func(_ *xmlscan.Node, sid int) {
		restSIDs = append(restSIDs, sid)
	}); err != nil {
		t.Fatal(err)
	}
	if len(origSIDs) != len(restSIDs) {
		t.Fatalf("assignment lengths differ")
	}
	for i := range origSIDs {
		if origSIDs[i] != restSIDs[i] {
			t.Fatalf("sid assignment differs at %d: %d vs %d", i, origSIDs[i], restSIDs[i])
		}
	}
}

func TestSnapshotBadData(t *testing.T) {
	var s Summary
	if err := s.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestSnapshotIsDeterministic: equal summaries encode to equal bytes.
// The alias map used to be gob-encoded as a map, in map order.
func TestSnapshotIsDeterministic(t *testing.T) {
	col := corpus.GenerateIEEE(10, 4)
	s, err := Build(col, Options{Kind: KindIncoming, Aliases: col.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Aliases) < 2 {
		t.Fatalf("%d aliases: too few for map order to show", len(s.Aliases))
	}
	first, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("encoding %d differs from the first", i+1)
		}
	}
}

// TestSnapshotReadsMapEncodedAliases: a snapshot written with the alias
// map in the old map encoding still decodes, aliases included.
func TestSnapshotReadsMapEncodedAliases(t *testing.T) {
	col := corpus.GenerateIEEE(10, 4)
	s, err := Build(col, Options{Kind: KindIncoming, Aliases: col.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	old := snapshot{Kind: s.Kind, K: s.K, Aliases: s.Aliases, Safe: s.safe}
	for _, n := range s.Nodes {
		old.Nodes = append(old.Nodes, snapshotNode{
			Label: n.Label, Path: n.Path, Parent: n.Parent, Children: n.Children, ExtentSize: n.ExtentSize,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var restored Summary
	if err := restored.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(restored.Aliases, s.Aliases) {
		t.Fatalf("aliases %v, want %v", restored.Aliases, s.Aliases)
	}
	if restored.NumNodes() != s.NumNodes() || !restored.SafeForRetrieval() {
		t.Fatalf("restored %d nodes (safe %v), want %d", restored.NumNodes(), restored.SafeForRetrieval(), s.NumNodes())
	}
}
