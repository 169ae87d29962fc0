package index

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPosOrdering(t *testing.T) {
	a := Pos{Doc: 1, Off: 100}
	b := Pos{Doc: 1, Off: 101}
	c := Pos{Doc: 2, Off: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("Pos ordering broken")
	}
	if a.Less(a) {
		t.Fatal("Less not irreflexive")
	}
	if !a.Less(MaxPos) || MaxPos.Less(a) {
		t.Fatal("m-pos must be maximal")
	}
	if !MaxPos.IsMax() || a.IsMax() {
		t.Fatal("IsMax broken")
	}
	if MaxPos.String() != "m-pos" || a.String() != "(1,100)" {
		t.Fatalf("String = %q, %q", MaxPos.String(), a.String())
	}
}

func TestElementContainment(t *testing.T) {
	e := Element{SID: 5, Doc: 3, End: 200, Length: 100} // spans [100, 200)
	if e.Start() != 100 {
		t.Fatalf("Start = %d", e.Start())
	}
	cases := []struct {
		p    Pos
		want bool
	}{
		{Pos{Doc: 3, Off: 150}, true},
		{Pos{Doc: 3, Off: 101}, true},
		{Pos{Doc: 3, Off: 199}, true},
		{Pos{Doc: 3, Off: 100}, false}, // strict: start itself excluded
		{Pos{Doc: 3, Off: 200}, false}, // strict: end itself excluded
		{Pos{Doc: 3, Off: 50}, false},
		{Pos{Doc: 4, Off: 150}, false}, // wrong doc
	}
	for _, tc := range cases {
		if got := e.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestDummyElement(t *testing.T) {
	d := DummyElement()
	if !d.IsDummy() {
		t.Fatal("dummy not dummy")
	}
	if d.Length != 0 {
		t.Fatal("dummy length != 0")
	}
	real := Element{Doc: 1, End: 10, Length: 5}
	if real.IsDummy() {
		t.Fatal("real element reported dummy")
	}
}

func TestElementsKeyOrder(t *testing.T) {
	rows := []Element{
		{SID: 2, Doc: 0, End: 5},
		{SID: 1, Doc: 9, End: 1},
		{SID: 1, Doc: 0, End: 100},
		{SID: 1, Doc: 0, End: 7},
	}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = elementsKey(r.SID, r.Doc, r.End)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	// Expected order: (1,0,7), (1,0,100), (1,9,1), (2,0,5).
	wantOrder := []Element{rows[3], rows[2], rows[1], rows[0]}
	for i, w := range wantOrder {
		sid, doc, end, err := decodeElementsKey(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if sid != w.SID || doc != w.Doc || end != w.End {
			t.Fatalf("key[%d] = (%d,%d,%d), want (%d,%d,%d)", i, sid, doc, end, w.SID, w.Doc, w.End)
		}
	}
	if _, _, _, err := decodeElementsKey([]byte("short")); err == nil {
		t.Fatal("short key decoded")
	}
}

func TestScoreInversionOrder(t *testing.T) {
	scores := []float64{0, 0.001, 0.5, 1, 2, 10, 1e6}
	for i := 1; i < len(scores); i++ {
		lo := invertScore(scores[i])   // higher score
		hi := invertScore(scores[i-1]) // lower score
		if lo >= hi {
			t.Fatalf("invertScore order broken at %v vs %v", scores[i], scores[i-1])
		}
	}
	// Negative scores clamp to zero.
	if invertScore(-5) != invertScore(0) {
		t.Fatal("negative score not clamped")
	}
	for _, s := range scores {
		if got := uninvertScore(invertScore(s)); got != s {
			t.Fatalf("roundtrip %v -> %v", s, got)
		}
	}
}

func TestQuickScoreInversionMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		ia, ib := invertScore(a), invertScore(b)
		switch {
		case a < b:
			return ia > ib
		case a > b:
			return ia < ib
		default:
			return ia == ib
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestRPLCodecRoundTrip: a one-entry RPL block decodes to its entry, and
// its key is the entry's RPL key under the term's prefix.
func TestRPLCodecRoundTrip(t *testing.T) {
	e := RPLEntry{Score: 3.25, SID: 7, Doc: 42, End: 9999, Length: 1234}
	rows := EncodeRPLBlocks("xml", []RPLEntry{e})
	if len(rows) != 1 || !bytes.Equal(rows[0].Key, rplKey("xml", e)) || !bytes.HasPrefix(rows[0].Key, termPrefix("xml")) {
		t.Fatalf("rows = %+v", rows)
	}
	got, err := decodeRPLBlock(rows[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("decodeRPLBlock = %+v", got)
	}
	if got[0].Element() != (Element{SID: 7, Doc: 42, End: 9999, Length: 1234}) {
		t.Fatalf("Element() = %+v", got[0].Element())
	}
}

func TestRPLKeyOrderIsScoreDescending(t *testing.T) {
	entries := []RPLEntry{
		{Score: 0.5, SID: 1, Doc: 1, End: 10},
		{Score: 9.0, SID: 2, Doc: 1, End: 20},
		{Score: 2.5, SID: 1, Doc: 2, End: 30},
		{Score: 2.5, SID: 1, Doc: 1, End: 40}, // tie broken by (sid,doc,end)
	}
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = rplKey("t", e)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	var scores []float64
	for i := range keys {
		for _, e := range entries {
			if bytes.Equal(keys[i], rplKey("t", e)) {
				scores = append(scores, e.Score)
			}
		}
	}
	want := []float64{9.0, 2.5, 2.5, 0.5}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("score order = %v, want %v", scores, want)
		}
	}
}

// TestERPLCodecRoundTrip: a one-entry ERPL block decodes to its entry,
// and its key is the entry's ERPL key under the (term, sid) prefix.
func TestERPLCodecRoundTrip(t *testing.T) {
	e := RPLEntry{Score: 1.5, SID: 3, Doc: 8, End: 77, Length: 60}
	rows := EncodeERPLBlocks("query", []RPLEntry{e})
	if len(rows) != 1 || !bytes.Equal(rows[0].Key, erplKey("query", e)) || !bytes.HasPrefix(rows[0].Key, erplSIDPrefix("query", 3)) {
		t.Fatalf("rows = %+v", rows)
	}
	got, err := decodeERPLBlockInto(nil, rows[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("decodeERPLBlockInto = %+v", got)
	}
}

func TestERPLKeyOrderIsPositional(t *testing.T) {
	entries := []RPLEntry{
		{SID: 1, Doc: 2, End: 5},
		{SID: 1, Doc: 1, End: 900},
		{SID: 1, Doc: 1, End: 30},
	}
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = erplKey("t", e)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	wantOrder := []RPLEntry{entries[2], entries[1], entries[0]}
	for i, w := range wantOrder {
		if !bytes.Equal(keys[i], erplKey("t", w)) {
			t.Fatalf("position order wrong at %d", i)
		}
	}
}

func TestPostingValueRoundTrip(t *testing.T) {
	ps := []Pos{{1, 2}, {1, 50}, {3, 7}, MaxPos}
	got, err := decodePostingInto(nil, postingValue(ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("pos[%d] = %v, want %v", i, got[i], ps[i])
		}
	}
	if _, err := decodePostingInto(nil, []byte{1}); err == nil {
		t.Fatal("short value decoded")
	}
	if _, err := decodePostingInto(nil, []byte{0, 2, 0}); err == nil {
		t.Fatal("truncated value decoded")
	}
}

func TestTermPrefixFree(t *testing.T) {
	// "ab" must not be a key-prefix collision with "abc".
	kAB := postingKey("ab", Pos{0, 0})
	kABC := postingKey("abc", Pos{0, 0})
	if bytes.HasPrefix(kABC, termPrefix("ab")) {
		t.Fatal("termPrefix(ab) is a prefix of key(abc)")
	}
	if bytes.Compare(kAB, kABC) >= 0 {
		t.Fatal("term order not preserved")
	}
}

func TestCompareDocEnd(t *testing.T) {
	if CompareDocEnd(1, 5, 1, 5) != 0 {
		t.Fatal("equal compare != 0")
	}
	if CompareDocEnd(1, 5, 1, 6) != -1 || CompareDocEnd(1, 6, 1, 5) != 1 {
		t.Fatal("end compare broken")
	}
	if CompareDocEnd(1, 9, 2, 0) != -1 || CompareDocEnd(2, 0, 1, 9) != 1 {
		t.Fatal("doc compare broken")
	}
}

func TestPostingDeltaCompression(t *testing.T) {
	// Dense same-document positions compress far below 8 bytes each.
	ps := make([]Pos, 200)
	off := uint32(100)
	for i := range ps {
		ps[i] = Pos{Doc: 7, Off: off}
		off += uint32(5 + i%30)
	}
	enc := postingValue(ps)
	if len(enc) >= 8*len(ps) {
		t.Fatalf("delta encoding %d bytes >= fixed %d", len(enc), 8*len(ps))
	}
	// One byte per same-document position (gaps < 64), one switch entry,
	// the header and six checkpoints.
	if limit := postingHeaderSize + 6*checkpointSize + len(ps) + 2; len(enc) > limit {
		t.Fatalf("delta encoding %d bytes for %d dense positions (want <= %d)", len(enc), len(ps), limit)
	}
	got, err := decodePostingInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("pos[%d] = %v, want %v", i, got[i], ps[i])
		}
	}
}

func TestPostingBadFormats(t *testing.T) {
	if _, err := decodePostingInto(nil, []byte{0x7F, 0, 1, 2}); err == nil {
		t.Fatal("unknown format accepted")
	}
	// Truncated delta stream.
	ps := []Pos{{1, 10}, {1, 20}, {2, 5}}
	enc := postingValue(ps)
	if _, err := decodePostingInto(nil, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated value accepted")
	}
	// Trailing garbage.
	if _, err := decodePostingInto(nil, append(enc, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: any sorted position list round-trips through the posting
// codec, and the in-place span count over the encoded fragment equals
// filtering the decoded positions, for spans anchored on its entries.
func TestQuickPostingRoundTrip(t *testing.T) {
	f := func(seeds []uint32, a, b uint16) bool {
		var ps []Pos
		var cur Pos
		for i, s := range seeds {
			if i == 0 {
				cur = Pos{Doc: s % 1000, Off: s % 100000}
			} else if s%5 == 0 {
				cur = Pos{Doc: cur.Doc + 1 + s%50, Off: s % 100000}
			} else {
				cur = Pos{Doc: cur.Doc, Off: cur.Off + 1 + s%5000}
			}
			ps = append(ps, cur)
			if len(ps) == maxPostingsPerFragment {
				break
			}
		}
		enc := postingValue(ps)
		got, err := decodePostingInto(nil, enc)
		if err != nil {
			return false
		}
		if len(got) != len(ps) {
			return false
		}
		for i := range ps {
			if got[i] != ps[i] {
				return false
			}
		}
		if len(ps) == 0 {
			return true
		}
		lo, hi := ps[int(a)%len(ps)], ps[int(b)%len(ps)]
		hi.Off += uint32(b) % 2
		tf, more, err := spanInFragment(enc, lo, hi, nil)
		wantTF, wantMore := filterSpan(ps, lo, hi)
		return err == nil && tf == wantTF && more == wantMore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPostingWorstCaseFitsValueLimit(t *testing.T) {
	// Pathological gaps: every position in a new far-away document.
	ps := make([]Pos, maxPostingsPerFragment)
	for i := range ps {
		ps[i] = Pos{Doc: uint32(i) * 16_000_000, Off: 4_000_000_000}
	}
	enc := postingValue(ps)
	if len(enc) > 3072 {
		t.Fatalf("worst-case fragment %d bytes exceeds storage value limit", len(enc))
	}
}
