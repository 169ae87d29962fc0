package jsoncorpus

import (
	"fmt"
	"slices"
	"testing"

	"trex/internal/xmlscan"
)

// sampleDocs is the shared corpus of mapping-rule exemplars: every rule
// in the package doc shows up at least once.
var sampleDocs = []string{
	`{"a":1,"b":[true,false],"c":{},"d":[],"e":null,"f":"x < y & z"}`,
	`"just a string"`,
	`42`,
	`-0.5e+10`,
	`true`,
	`null`,
	`[]`,
	`[1,[2,3],[],{"k":"v"}]`,
	`[[1,2]]`,
	`[[1],[2]]`,
	`{"nested":{"deep":{"list":[{"x":1},{"x":2}]}}}`,
	`{"":"empty key","123":"digit key","weird key":"space","ta g<":"markup"}`,
	`{"text":"The  QUICK  brown-fox jumps &amp; runs <b>fast</b>"}`,
	`{"num":[1,2.5,-3,1e10,0.0]}`,
	`{"dup-ish":[{"a":1},{"a":1}],"unicode":"héllo wörld ☃"}`,
	`{"ctrl":"tab\tnewline\nquote\"backslash\\"}`,
	`{"mixed":[null,true,"s",7,[8],{"o":9},[]]}`,
	" { \"b\" :\t[ 1 , 2.50 ] ,\r\n \"a\" : \"x\" } ",
	`{"k":1,"k":{"x":2},"\u006b":3,"j":[1],"j":[]}`,
	`{"s":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u00e9\/\b\f"}`,
	"{\"bad\":\"\xff\xfe ok \xed\xa0\x80 caf\xc3\xa9\"}",
	`1 x`,
	`{"a":1}}`,
}

func TestMapGolden(t *testing.T) {
	xml, err := ToXML([]byte(`{"a":1,"b":[true,false],"c":{},"d":[],"e":null,"f":"x < y & z"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `<doc t="o"><a t="n">1</a><b a="1" t="b">true</b><b a="1" t="b">false</b>` +
		`<c t="o"></c><d t="a"></d><e t="z"></e><f>x &lt; y &amp; z</f></doc>`
	if string(xml) != want {
		t.Fatalf("canonical rendering mismatch:\n got %s\nwant %s", xml, want)
	}
}

func TestMapGoldenTopLevelArray(t *testing.T) {
	xml, err := ToXML([]byte(`[1,[2,3]]`))
	if err != nil {
		t.Fatal(err)
	}
	want := `<doc t="v"><el t="n">1</el><el t="v"><el t="n">2</el><el t="n">3</el></el></doc>`
	if string(xml) != want {
		t.Fatalf("canonical rendering mismatch:\n got %s\nwant %s", xml, want)
	}
}

// TestMapMatchesScanner is the in-package half of the cross-universe
// differential: Map computes tree/terms/offsets directly in one pass,
// and must agree byte-for-byte with xmlscan parsing the rendering.
func TestMapMatchesScanner(t *testing.T) {
	var g, xg xmlscan.Grouper
	for _, doc := range sampleDocs {
		d, err := Map([]byte(doc), &g)
		if err != nil {
			t.Fatalf("Map(%s): %v", doc, err)
		}
		wantRoot, wantGroups, err := xg.Parse(d.XML)
		if err != nil {
			t.Fatalf("xmlscan parse over rendering of %s: %v", doc, err)
		}
		if err := sameTree(d.Root, wantRoot); err != nil {
			t.Fatalf("tree mismatch for %s over %s: %v", doc, d.XML, err)
		}
		if err := sameGroups(d.Groups, wantGroups); err != nil {
			t.Fatalf("terms mismatch for %s over %s: %v", doc, d.XML, err)
		}
	}
}

func sameTree(got, want *xmlscan.Node) error {
	if got.Tag != want.Tag || got.Start != want.Start || got.End != want.End {
		return fmt.Errorf("node got <%s>[%d,%d) want <%s>[%d,%d)",
			got.Tag, got.Start, got.End, want.Tag, want.Start, want.End)
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Errorf("<%s> has %d children, want %d", got.Tag, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		if err := sameTree(got.Children[i], want.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

func sameGroups(got, want xmlscan.TermGroups) error {
	if !slices.Equal(got.Terms, want.Terms) {
		return fmt.Errorf("terms %q, want %q", got.Terms, want.Terms)
	}
	if len(got.Offsets) != len(want.Offsets) {
		return fmt.Errorf("%d occurrences, want %d", len(got.Offsets), len(want.Offsets))
	}
	for i, term := range got.Terms {
		if !slices.Equal(got.At(i), want.At(i)) {
			return fmt.Errorf("term %q offsets %v, want %v", term, got.At(i), want.At(i))
		}
	}
	return nil
}

// TestRoundTrip: FromXML inverts ToXML onto the canonical JSON form.
func TestRoundTrip(t *testing.T) {
	for _, doc := range sampleDocs {
		xml, err := ToXML([]byte(doc))
		if err != nil {
			t.Fatalf("ToXML(%s): %v", doc, err)
		}
		back, err := FromXML(xml)
		if err != nil {
			t.Fatalf("FromXML over rendering of %s: %v", doc, err)
		}
		canon, err := Canonical([]byte(doc))
		if err != nil {
			t.Fatalf("Canonical(%s): %v", doc, err)
		}
		if string(back) != string(canon) {
			t.Fatalf("round trip of %s:\n got %s\nwant %s", doc, back, canon)
		}
		// Canonical form is a fixpoint of the mapping.
		xml2, err := ToXML(canon)
		if err != nil {
			t.Fatalf("ToXML over canonical of %s: %v", doc, err)
		}
		if string(xml2) != string(xml) {
			t.Fatalf("canonical form of %s renders differently:\n got %s\nwant %s", doc, xml2, xml)
		}
	}
}

func TestMapErrors(t *testing.T) {
	for _, bad := range []string{
		``, `   `, `{`, `[1,]`, `{"a":}`, `1 2`, `{"a":1}{"b":2}`,
		`nul`, `tru`, `"unterminated`, `{"a":01}`,
	} {
		if _, err := Map([]byte(bad), new(xmlscan.Grouper)); err == nil {
			t.Errorf("Map(%q): want error, got nil", bad)
		}
	}
}

func TestEncodeDecodeKey(t *testing.T) {
	keys := []string{
		"", "a", "plain", "PlainCase", "123", "1a", "a1",
		"weird key", "ta g<", "_", "__", "_20", "a_b",
		"héllo", "☃", "k\x00v", "dots.and.dashes-too",
	}
	seen := map[string]string{}
	for _, k := range keys {
		enc := EncodeKey(k)
		for i := 0; i < len(enc); i++ {
			c := enc[i]
			ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' && i > 0
			if !ok {
				t.Errorf("EncodeKey(%q) = %q: byte %d outside the name alphabet", k, enc, i)
			}
		}
		if prev, dup := seen[enc]; dup {
			t.Errorf("EncodeKey collision: %q and %q both encode to %q", prev, k, enc)
		}
		seen[enc] = k
		dec, err := DecodeKey(enc)
		if err != nil {
			t.Errorf("DecodeKey(EncodeKey(%q)) = error %v", k, err)
			continue
		}
		if dec != k {
			t.Errorf("DecodeKey(EncodeKey(%q)) = %q", k, dec)
		}
	}
	for _, bad := range []string{"_2", "_zz", "_2x", "a_"} {
		if dec, err := DecodeKey(bad); err == nil {
			t.Errorf("DecodeKey(%q) = %q, want error", bad, dec)
		}
	}
}

func TestFromXMLRejectsNonCanonical(t *testing.T) {
	for _, bad := range []string{
		``,
		`<root></root>`,                    // wrong root tag
		`<doc a="1"></doc>`,                // root with member marker
		`<doc t="x"></doc>`,                // unknown type marker
		`<doc q="1"></doc>`,                // unknown attribute
		`<doc a="2" t="o"></doc>`,          // bad marker value
		`<doc t="o"><a t="n">zz</a></doc>`, // bad number literal
		`<doc t="o"><a t="n">1</a><a>x</a></doc>`,    // repeat without markers
		`<doc t="o"><a a="1">x</a><a>y</a></doc>`,    // mixed array and plain
		`<doc t="o"><a t="a">x</a></doc>`,            // non-empty placeholder
		`<doc t="b">maybe</doc>`,                     // bad boolean
		`<doc t="z">x</doc>`,                         // non-empty null
		`<doc t="v"><x t="n">1</x></doc>`,            // wrong item tag
		`<doc t="o"><a>x<b>y</b></a></doc>`,          // mixed content
		`<doc>&copy;</doc>`,                          // unknown entity
		`<doc t="a"></doc>`,                          // placeholder as a value
		`<doc t="o"><a t="n">1</a></doc><doc></doc>`, // two roots
	} {
		if v, err := FromXML([]byte(bad)); err == nil {
			t.Errorf("FromXML(%s) = %s, want error", bad, v)
		}
	}
}

func TestJSONPathToNEXI(t *testing.T) {
	cases := []struct{ in, want string }{
		{`$.store.book`, `//store//book`},
		{`$..book`, `//book`},
		{`$.a.*`, `//a//*`},
		{`$.a[*].b`, `//a//b`},
		{`$['weird key']`, `//weird_20key`},
		{`$["quoted"].x`, `//quoted//x`},
		{`$..book[?(about(@.title, gold))]`, `//book[about(.//title, gold)]`},
		{`$..book[?(about(@, rare first edition))]`, `//book[about(., rare first edition)]`},
		{
			`$..book[?(about(@.title, gold) and about(@, rare))]`,
			`//book[about(.//title, gold) and about(., rare)]`,
		},
		{
			`$.a[?(about(@..b, x) || about(@['c d'], y))]`,
			`//a[about(.//b, x) or about(.//c_20d, y)]`,
		},
		{
			`$.a[?((about(@, x) && about(@, y)) or about(@, z))]`,
			`//a[(about(., x) and about(., y)) or about(., z)]`,
		},
		{
			`$.log[?(about(@.msg, +timeout -retry "connection refused"))]`,
			`//log[about(.//msg, +timeout -retry "connection refused")]`,
		},
		{`$.a[?(about(@, x))].b[?(about(@, y))]`, `//a[about(., x)]//b[about(., y)]`},
	}
	for _, c := range cases {
		got, err := JSONPathToNEXI(c.in)
		if err != nil {
			t.Errorf("JSONPathToNEXI(%s): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("JSONPathToNEXI(%s):\n got %s\nwant %s", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		``, `$`, `$$`, `.a`, `$.`, `$.a[0]`, `$.a[-1]`, `$.a[]`,
		`$[?(about(@, x))]`, `$.a[?(about(@, x))][?(about(@, y))]`,
		`$.a[?(about(@, ))]`, `$.a[?(about(@, x)`, `$.a['unterminated`,
		`$.a[?(count(@) > 1)]`, `$.a extra`,
	} {
		if got, err := JSONPathToNEXI(bad); err == nil {
			t.Errorf("JSONPathToNEXI(%s) = %s, want error", bad, got)
		}
	}
}
