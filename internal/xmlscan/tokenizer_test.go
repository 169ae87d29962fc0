package xmlscan

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	var got []Term
	Tokenize([]byte("Hello, XML world!"), 0, func(tm Term) { got = append(got, tm) })
	want := []Term{
		{Text: "hello", Offset: 0},
		{Text: "xml", Offset: 7},
		{Text: "world", Offset: 11},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %+v, want %+v", got, want)
	}
}

func TestTokenizeBaseOffset(t *testing.T) {
	var got []Term
	Tokenize([]byte("ab cd"), 100, func(tm Term) { got = append(got, tm) })
	if got[0].Offset != 100 || got[1].Offset != 103 {
		t.Fatalf("offsets = %d, %d; want 100, 103", got[0].Offset, got[1].Offset)
	}
}

func TestTokenizeDropsShortTokens(t *testing.T) {
	got := TokenizeString("a b cd e fg")
	want := []string{"cd", "fg"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeString = %v, want %v", got, want)
	}
}

func TestTokenizeNumbersAndMixed(t *testing.T) {
	got := TokenizeString("IEEE 2005 top-k  x86_64")
	// '-' and '_' split tokens; single chars dropped ("k").
	want := []string{"ieee", "2005", "top", "x86", "64"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeString = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := TokenizeString(""); got != nil {
		t.Fatalf("TokenizeString(\"\") = %v, want nil", got)
	}
	if got := TokenizeString("!!! ... ???"); got != nil {
		t.Fatalf("punctuation only = %v, want nil", got)
	}
}

func TestDocTerms(t *testing.T) {
	doc := `<a>alpha <b>Beta gamma ALPHA</b> x delta alpha</a>`
	var g Grouper
	_, tg, err := g.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct terms in first-occurrence order, lowercased; "x" is too
	// short to be a term.
	want := []string{"alpha", "beta", "gamma", "delta"}
	if !reflect.DeepEqual(tg.Terms, want) {
		t.Fatalf("Terms = %v, want %v", tg.Terms, want)
	}
	wantOffs := [][]uint32{{3, 23, 41}, {12}, {17}, {35}}
	for i, term := range tg.Terms {
		offs := tg.At(i)
		if !reflect.DeepEqual(offs, wantOffs[i]) {
			t.Errorf("%s offsets = %v, want %v", term, offs, wantOffs[i])
		}
		// Offsets point at the token itself, case-insensitively.
		for _, off := range offs {
			if got := strings.ToLower(doc[off : int(off)+len(term)]); got != term {
				t.Errorf("term %q offset %d points at %q", term, off, got)
			}
		}
	}
	if len(tg.Offsets) != 6 {
		t.Fatalf("%d occurrences, want 6", len(tg.Offsets))
	}
	// The grouper starts the next document from nothing.
	_, tg, err = g.Parse([]byte(`<a>gamma</a>`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tg.Terms, []string{"gamma"}) || !reflect.DeepEqual(tg.At(0), []uint32{3}) {
		t.Fatalf("second document: %v %v", tg.Terms, tg.Offsets)
	}
}

func TestDocTermsErrorPropagates(t *testing.T) {
	var g Grouper
	if _, _, err := g.Parse([]byte(`<a>oops`)); err == nil {
		t.Fatal("expected error")
	}
	// A failed document leaves nothing behind for the next one.
	_, tg, err := g.Parse([]byte(`<a>fine</a>`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tg.Terms, []string{"fine"}) || len(tg.Offsets) != 1 {
		t.Fatalf("after an error: %v %v", tg.Terms, tg.Offsets)
	}
}

// Property: every token Tokenize emits is lowercase alphanumeric, at least
// minTermLen long, and its offset points at a matching region of the input
// (case-insensitively).
func TestQuickTokenizeInvariants(t *testing.T) {
	f := func(text []byte) bool {
		ok := true
		Tokenize(text, 0, func(tm Term) {
			if len(tm.Text) < minTermLen {
				ok = false
				return
			}
			for i := 0; i < len(tm.Text); i++ {
				c := tm.Text[i]
				if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
					ok = false
					return
				}
			}
			if tm.Offset < 0 || tm.Offset+len(tm.Text) > len(text) {
				ok = false
				return
			}
			for i := 0; i < len(tm.Text); i++ {
				if lowerByte(text[tm.Offset+i]) != tm.Text[i] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
