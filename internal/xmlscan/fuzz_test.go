package xmlscan

import (
	"slices"
	"testing"
)

// FuzzDocTermGroups checks the grouped tokenizer the index build runs
// against the per-token one queries and snippets run: on arbitrary
// bytes, Grouper.Parse must agree with Parse on acceptance, and an
// accepted document's groups must be exactly Tokenize's tokens over the
// scanner's text runs, grouped by text in first-occurrence order with
// their offsets in document order. One grouper serves every input, so a
// document also checks that the one before it, accepted or not, left
// nothing behind.
func FuzzDocTermGroups(f *testing.F) {
	f.Add([]byte(`<a>alpha <b>Beta gamma ALPHA</b> x delta alpha</a>`))
	f.Add([]byte(`<a><![CDATA[ab AB ab]]><!-- cd --><b/>ab&amp;cd</a>`))
	f.Add([]byte(`<?xml version="1.0"?><!DOCTYPE a [<!ENTITY e "x">]><a k="v w">v w</a>`))
	f.Add([]byte(`<a>oops`))
	f.Add([]byte(`<a></a><b>two roots</b>`))
	f.Add([]byte(`<a></a>`))
	var g Grouper
	f.Fuzz(func(t *testing.T, data []byte) {
		root, tg, err := g.Parse(data)
		if _, perr := Parse(data); (err == nil) != (perr == nil) {
			t.Fatalf("Grouper.Parse error %v, Parse error %v", err, perr)
		}
		if err != nil {
			if root != nil || tg.Terms != nil || tg.Offsets != nil {
				t.Fatalf("failed parse returned %v, %+v", root, tg)
			}
			return
		}
		var wantTerms []string
		var wantOffs [][]uint32
		group := map[string]int{}
		s := NewScanner(data)
		for s.Next() {
			if ev := s.Event(); ev.Kind == KindText {
				Tokenize(ev.Text, ev.Offset, func(tm Term) {
					i, ok := group[tm.Text]
					if !ok {
						i = len(wantTerms)
						group[tm.Text] = i
						wantTerms = append(wantTerms, tm.Text)
						wantOffs = append(wantOffs, nil)
					}
					wantOffs[i] = append(wantOffs[i], uint32(tm.Offset))
				})
			}
		}
		if !slices.Equal(tg.Terms, wantTerms) {
			t.Fatalf("terms %q, want %q", tg.Terms, wantTerms)
		}
		total := 0
		for i := range wantTerms {
			if !slices.Equal(tg.At(i), wantOffs[i]) {
				t.Fatalf("term %q offsets %v, want %v", wantTerms[i], tg.At(i), wantOffs[i])
			}
			total += len(wantOffs[i])
		}
		if len(tg.Offsets) != total {
			t.Fatalf("%d offsets, want %d", len(tg.Offsets), total)
		}
	})
}
