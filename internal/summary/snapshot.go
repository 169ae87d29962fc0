package summary

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
)

// snapshot is the serialized form of a Summary, so an engine can reopen a
// collection from disk without re-parsing the corpus.
type snapshot struct {
	Kind Kind
	K    int
	// Aliases is how snapshots written before AliasPairs held the alias
	// map. gob writes a map in iteration order, so those snapshots' bytes
	// varied from one encoding to the next; it is only read now.
	Aliases map[string]string
	Safe    bool
	Nodes   []snapshotNode
	// AliasPairs holds the alias map as (synonym, canonical) pairs sorted
	// by synonym, so equal summaries encode to equal bytes.
	AliasPairs []aliasPair
}

type aliasPair struct {
	From, To string
}

type snapshotNode struct {
	Label      string
	Path       []string
	Parent     int
	Children   []int
	ExtentSize int
}

// MarshalBinary encodes the summary with encoding/gob.
func (s *Summary) MarshalBinary() ([]byte, error) {
	snap := snapshot{
		Kind: s.Kind,
		K:    s.K,
		Safe: s.safe,
	}
	for from, to := range s.Aliases {
		snap.AliasPairs = append(snap.AliasPairs, aliasPair{From: from, To: to})
	}
	slices.SortFunc(snap.AliasPairs, func(a, b aliasPair) int { return strings.Compare(a.From, b.From) })
	for _, n := range s.Nodes {
		snap.Nodes = append(snap.Nodes, snapshotNode{
			Label:      n.Label,
			Path:       n.Path,
			Parent:     n.Parent,
			Children:   n.Children,
			ExtentSize: n.ExtentSize,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("summary: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a summary encoded by MarshalBinary.
func (s *Summary) UnmarshalBinary(data []byte) error {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("summary: decode: %w", err)
	}
	s.Kind = snap.Kind
	s.K = snap.K
	s.Aliases = snap.Aliases
	if len(snap.AliasPairs) > 0 {
		s.Aliases = make(map[string]string, len(snap.AliasPairs))
		for _, p := range snap.AliasPairs {
			s.Aliases[p.From] = p.To
		}
	}
	s.safe = snap.Safe
	s.Nodes = nil
	s.byKey = make(map[string]*Node, len(snap.Nodes))
	for i, sn := range snap.Nodes {
		n := &Node{
			SID:        i + 1,
			Label:      sn.Label,
			Path:       sn.Path,
			Parent:     sn.Parent,
			Children:   sn.Children,
			ExtentSize: sn.ExtentSize,
		}
		s.Nodes = append(s.Nodes, n)
		s.byKey[s.key(n.Path)] = n
	}
	return nil
}
