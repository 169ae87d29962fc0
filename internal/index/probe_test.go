package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// oldPostingValue encodes positions in the posting format earlier versions
// wrote — format byte 0x02, then a marker varint (0 = same document, else
// document delta + 1) and an offset or offset-gap varint per position — so
// the tests can plant the fragments an old database holds. No reader
// accepts them.
func oldPostingValue(positions []Pos) []byte {
	out := []byte{0x02, 0, 0}
	binary.BigEndian.PutUint16(out[1:3], uint16(len(positions)))
	var prev Pos
	for i, p := range positions {
		if i == 0 || p.Doc != prev.Doc {
			out = binary.AppendUvarint(out, uint64(p.Doc-prev.Doc)+1)
			out = binary.AppendUvarint(out, uint64(p.Off))
		} else {
			out = binary.AppendUvarint(out, 0)
			out = binary.AppendUvarint(out, uint64(p.Off-prev.Off))
		}
		prev = p
	}
	return out
}

// sweepPositions generates total ascending positions whose document
// switches land on checkpoint entries, on fragment boundaries of every
// swept size and in between, with gaps of one, two and three varint bytes.
func sweepPositions(total int) []Pos {
	ps := make([]Pos, 0, total)
	cur := Pos{Doc: 3, Off: 10}
	for i := 0; i < total; i++ {
		switch {
		case i == 0:
		case i%64 == 32, i%37 == 0, i == 255, i == 256:
			cur = Pos{Doc: cur.Doc + 1 + uint32(i%3), Off: uint32(5 + i%11)}
		case i%29 == 0:
			cur.Off += 20000
		case i%7 == 0:
			cur.Off += 300
		default:
			cur.Off += 1 + uint32(i%9)
		}
		ps = append(ps, cur)
	}
	return ps
}

// plantTerm writes positions as fragments of fragSize entries, each
// encoded by enc(fragment index).
func plantTerm(t testing.TB, st *Store, term string, ps []Pos, fragSize int, enc func(int) func([]Pos) []byte) {
	t.Helper()
	for lo, f := 0, 0; lo < len(ps); lo, f = lo+fragSize, f+1 {
		frag := ps[lo:min(lo+fragSize, len(ps))]
		if err := st.Postings.Put(postingKey(term, frag[0]), enc(f)(frag)); err != nil {
			t.Fatal(err)
		}
	}
}

// modelSpan is decode-everything-and-filter.
func modelSpan(ps []Pos, e Element) []uint32 {
	var out []uint32
	if e.Length == 0 {
		return nil
	}
	for _, p := range ps {
		if e.Contains(p) {
			out = append(out, p.Off)
		}
	}
	return out
}

// reachesOld reports whether a probe of e over ps, planted as fragments of
// fragSize entries, reads a fragment for which old is true: the probe
// starts at the fragment covering the span start (else the first) and
// moves on while every position it has seen lies below the span end.
func reachesOld(ps []Pos, fragSize int, old func(f int) bool, e Element) bool {
	if e.IsDummy() || e.Length == 0 {
		return false
	}
	lo := Pos{Doc: e.Doc, Off: e.Start() + 1}
	hi := Pos{Doc: e.Doc, Off: e.End}
	frags := (len(ps) + fragSize - 1) / fragSize
	f := 0
	for g := 1; g < frags; g++ {
		if !lo.Less(ps[g*fragSize]) {
			f = g
		}
	}
	for ; f < frags; f++ {
		if old(f) {
			return true
		}
		if last := ps[min((f+1)*fragSize, len(ps))-1]; !last.Less(hi) {
			return false
		}
	}
	return false
}

// isOldFormat reports whether err is the rejection of an old-format value.
func isOldFormat(err error) bool {
	return err != nil && strings.Contains(err.Error(), "predates the current format")
}

// filterSpan is spanInFragment's model over decoded positions: how many
// lie in [lo, hi), and whether all of them are below hi.
func filterSpan(ps []Pos, lo, hi Pos) (tf int, more bool) {
	for _, p := range ps {
		if !p.Less(hi) {
			return tf, false
		}
		if !p.Less(lo) {
			tf++
		}
	}
	return tf, true
}

// TestSpanProbeBoundarySweep checks the probe against the model for spans
// that start and end on, just before and just after every kind of
// boundary the format has, at every fragment size around a checkpoint
// interval. "legacy" lists hold only old-format fragments and "mixed"
// ones alternate them with current ones: there every read that reaches an
// old fragment must fail with the rebuild error, and every other read
// must still match the model.
func TestSpanProbeBoundarySweep(t *testing.T) {
	olds := map[string]func(f int) bool{
		"skip":   func(int) bool { return false },
		"legacy": func(int) bool { return true },
		"mixed":  func(f int) bool { return f%2 == 0 },
	}
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 255, 256} {
		for name, old := range olds {
			enc := func(f int) func([]Pos) []byte {
				if old(f) {
					return oldPostingValue
				}
				return postingValue
			}
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				st := openEmptyStore(t)
				total := 3*n + 1
				if n == 1 {
					total = 5
				}
				ps := sweepPositions(total)
				plantTerm(t, st, "mid", ps, n, enc)
				// Neighbours in key order: a floor-seek below the term's
				// first fragment and a step past its last land on these.
				plantTerm(t, st, "mic", []Pos{{Doc: 900, Off: 1}}, 1, enc)
				plantTerm(t, st, "mie", []Pos{{Doc: 0, Off: 1}}, 1, enc)

				it := NewPostingIterator(st, "mid")
				if old(0) {
					if got, err := it.NextPosition(); !isOldFormat(err) {
						t.Fatalf("NextPosition over an old fragment = %v, %v; want the rebuild error", got, err)
					}
				} else {
					for i, want := range append(append([]Pos(nil), ps...), MaxPos, MaxPos) {
						got, err := it.NextPosition()
						if err != nil || got != want {
							t.Fatalf("NextPosition %d = %v, %v; want %v", i, got, err, want)
						}
					}
				}

				probe := NewSpanProbe(st, "mid")
				check := func(e Element) {
					t.Helper()
					if reachesOld(ps, n, old, e) {
						got, err := probe.Count(e)
						if !isOldFormat(err) {
							t.Fatalf("Count(%+v) reaching an old fragment = %d, %v; want the rebuild error", e, got, err)
						}
						if got, err = TFInSpan(st, "mid", e); !isOldFormat(err) {
							t.Fatalf("TFInSpan(%+v) reaching an old fragment = %d, %v; want the rebuild error", e, got, err)
						}
						if offs, err := positionsInSpan(st, "mid", e); !isOldFormat(err) {
							t.Fatalf("positionsInSpan(%+v) reaching an old fragment = %v, %v; want the rebuild error", e, offs, err)
						}
						return
					}
					want := modelSpan(ps, e)
					got, err := probe.Count(e)
					if err != nil || got != len(want) {
						t.Fatalf("Count(%+v) = %d, %v; want %d", e, got, err, len(want))
					}
					if got, err = TFInSpan(st, "mid", e); err != nil || got != len(want) {
						t.Fatalf("TFInSpan(%+v) = %d, %v; want %d", e, got, err, len(want))
					}
					offs, err := positionsInSpan(st, "mid", e)
					if err != nil || fmt.Sprint(offs) != fmt.Sprint(want) {
						t.Fatalf("positionsInSpan(%+v) = %v, %v; want %v", e, offs, err, want)
					}
				}

				// Indexes around entry 0, the checkpoints, the fragment
				// boundaries and the list end.
				var idx []int
				seen := map[int]bool{}
				for _, c := range []int{0, 32, 64, 224, n, 2 * n, 3 * n, total - 1} {
					for i := c - 2; i <= c+2; i++ {
						if i >= 0 && i < total && !seen[i] {
							seen[i] = true
							idx = append(idx, i)
						}
					}
				}
				for _, i := range idx {
					for _, j := range idx {
						if j < i || ps[i].Doc != ps[j].Doc {
							continue
						}
						for _, start := range []uint32{ps[i].Off - 1, ps[i].Off} {
							for _, end := range []uint32{ps[j].Off, ps[j].Off + 1} {
								if end >= start {
									check(Element{Doc: ps[i].Doc, End: end, Length: end - start})
								}
							}
						}
					}
				}
				// Whole documents: below the first fragment, absent ones in
				// between, every present one (some straddle fragments), past
				// the last.
				for doc := uint32(0); doc <= ps[total-1].Doc+2; doc++ {
					check(Element{Doc: doc, End: math.MaxUint32, Length: math.MaxUint32})
					check(Element{Doc: doc, End: 4, Length: 4})
				}
				check(Element{Doc: ps[0].Doc, End: 50})
				check(DummyElement())
			})
		}
	}
}

// probeFixture plants one long skip-format list and returns elements
// spread over it.
func probeFixture(t testing.TB) (*Store, []Element) {
	st := openEmptyStore(t)
	ps := sweepPositions(40 * maxPostingsPerFragment)
	plantTerm(t, st, "mid", ps, maxPostingsPerFragment, func(int) func([]Pos) []byte { return postingValue })
	var elems []Element
	for i := 0; i+12 < len(ps); i += 97 {
		if j := i + i%12; ps[i].Doc == ps[j].Doc {
			elems = append(elems, Element{Doc: ps[i].Doc, End: ps[j].Off + 1, Length: ps[j].Off + 2 - ps[i].Off})
		}
	}
	return st, elems
}

func TestSpanProbeCountDoesNotAllocate(t *testing.T) {
	st, elems := probeFixture(t)
	probe := NewSpanProbe(st, "mid")
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if tf, err := probe.Count(elems[i%len(elems)]); err != nil || tf == 0 {
			t.Fatalf("Count = %d, %v", tf, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("SpanProbe.Count allocates %.1f times per call on a warm store, want 0", allocs)
	}
}

func BenchmarkSpanProbe(b *testing.B) {
	st, elems := probeFixture(b)
	b.Run("Count", func(b *testing.B) {
		probe := NewSpanProbe(st, "mid")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := probe.Count(elems[i%len(elems)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TFInSpan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TFInSpan(st, "mid", elems[i%len(elems)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
