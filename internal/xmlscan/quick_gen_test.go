package xmlscan

import (
	"math/rand"
	"strings"
	"testing"
)

// genDoc produces a random well-formed XML document and the expected
// number of elements.
func genDoc(rng *rand.Rand, maxDepth int) (string, int) {
	var sb strings.Builder
	count := 0
	tags := []string{"a", "bb", "ccc", "dd", "e"}
	texts := []string{"", "hello world", "x", "  spaced out  ", "123 456", "&amp; entity"}
	var emit func(depth int)
	emit = func(depth int) {
		tag := tags[rng.Intn(len(tags))]
		count++
		if rng.Intn(6) == 0 {
			sb.WriteString("<" + tag + "/>")
			return
		}
		sb.WriteString("<" + tag)
		if rng.Intn(3) == 0 {
			sb.WriteString(` attr="` + texts[rng.Intn(len(texts))] + `"`)
		}
		sb.WriteString(">")
		nChildren := rng.Intn(3)
		if depth >= maxDepth {
			nChildren = 0
		}
		sb.WriteString(texts[rng.Intn(len(texts))])
		for i := 0; i < nChildren; i++ {
			emit(depth + 1)
			sb.WriteString(texts[rng.Intn(len(texts))])
		}
		if rng.Intn(5) == 0 {
			sb.WriteString("<!-- comment -->")
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String(), count
}

// TestQuickGeneratedDocsParse property: generated well-formed documents
// parse, report the exact element count, and satisfy the span invariants
// (root spans the document, children strictly nested, spans map back to
// '<'/'>' boundaries).
func TestQuickGeneratedDocsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Grouper
	for trial := 0; trial < 400; trial++ {
		doc, wantCount := genDoc(rng, 4)
		root, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, doc)
		}
		if got := root.Count(); got != wantCount {
			t.Fatalf("trial %d: Count = %d, want %d\ndoc: %s", trial, got, wantCount, doc)
		}
		if root.Start != 0 || root.End != len(doc) {
			t.Fatalf("trial %d: root span [%d,%d), doc len %d", trial, root.Start, root.End, len(doc))
		}
		root.Walk(func(n *Node) bool {
			if doc[n.Start] != '<' {
				t.Fatalf("trial %d: element %q start %d is %q", trial, n.Tag, n.Start, doc[n.Start])
			}
			if doc[n.End-1] != '>' {
				t.Fatalf("trial %d: element %q end %d-1 is %q", trial, n.Tag, n.End, doc[n.End-1])
			}
			for i, c := range n.Children {
				if c.Start <= n.Start || c.End >= n.End {
					t.Fatalf("trial %d: child %d of %q not strictly nested", trial, i, n.Tag)
				}
				if i > 0 && c.Start < n.Children[i-1].End {
					t.Fatalf("trial %d: siblings overlap under %q", trial, n.Tag)
				}
			}
			return true
		})
		// Term offsets always point into text, never into markup.
		_, tg, err := g.Parse([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: Grouper.Parse: %v", trial, err)
		}
		for i, term := range tg.Terms {
			for _, off := range tg.At(i) {
				got := strings.ToLower(doc[off : int(off)+len(term)])
				if got != term {
					t.Fatalf("trial %d: term %q offset %d points at %q", trial, term, off, got)
				}
			}
		}
	}
}

// TestQuickMutatedDocsNeverPanic property: randomly corrupting documents
// yields errors, not panics, and never false element counts.
func TestQuickMutatedDocsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		doc, _ := genDoc(rng, 3)
		b := []byte(doc)
		// Apply 1-3 random mutations.
		for m := 1 + rng.Intn(3); m > 0 && len(b) > 0; m-- {
			switch rng.Intn(3) {
			case 0: // delete a byte
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 1: // flip a byte
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			default: // duplicate a byte
				i := rng.Intn(len(b))
				b = append(b[:i+1], b[i:]...)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Parse panicked: %v\ndoc: %q", trial, r, b)
				}
			}()
			_, _ = Parse(b)
		}()
	}
}
