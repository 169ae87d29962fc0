package jsoncorpus

import (
	"testing"

	"trex/internal/xmlscan"
)

// FuzzJSONToElements is the mapper's safety net: arbitrary bytes must
// never panic, and every accepted document must (a) agree with the XML
// scanner over its own rendering — the one-pass layout versus the real
// parser, element tree and grouped terms alike — and (b) round-trip losslessly through the element tree back
// to canonical JSON.
func FuzzJSONToElements(f *testing.F) {
	for _, doc := range sampleDocs {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"a":[[],[[]],[{"":null}]]}`))
	f.Add([]byte("{\"\x00\":\"\x1f\",\"&<>\":\"&<>\"}"))
	f.Add([]byte(`1e-00007`))
	var g, xg xmlscan.Grouper
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Map(data, &g)
		if err != nil {
			return // not a JSON document; rejection is the only requirement
		}
		wantRoot, wantGroups, err := xg.Parse(d.XML)
		if err != nil {
			t.Fatalf("rendering does not re-parse: %v\nxml: %q", err, d.XML)
		}
		if err := sameTree(d.Root, wantRoot); err != nil {
			t.Fatalf("tree mismatch: %v\nxml: %q", err, d.XML)
		}
		if err := sameGroups(d.Groups, wantGroups); err != nil {
			t.Fatalf("term groups mismatch: %v\nxml: %q", err, d.XML)
		}
		back, err := FromXML(d.XML)
		if err != nil {
			t.Fatalf("FromXML over own rendering: %v\nxml: %q", err, d.XML)
		}
		canon, err := Canonical(data)
		if err != nil {
			t.Fatalf("Canonical rejected what Map accepted: %v", err)
		}
		if string(back) != string(canon) {
			t.Fatalf("lossy round trip:\n got %q\nwant %q\nxml: %q", back, canon, d.XML)
		}
	})
}
