package index

import (
	"encoding/binary"
	"math"
	"testing"
)

// Corrupt-input tables: every value decoder must return an error (never
// panic, never succeed) on truncated or malformed bytes. Each case is run
// under a recover guard so a panic reports the offending decoder+input
// instead of killing the test binary.

func mustError(t *testing.T, decoder, name string, fn func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s/%s: panic: %v", decoder, name, r)
		}
	}()
	if err := fn(); err == nil {
		t.Errorf("%s/%s: no error on corrupt input", decoder, name)
	}
}

func validRPLRow(t *testing.T) []byte {
	t.Helper()
	return EncodeRPLBlocks("t", randEntries(10, 1))[0].Value
}

func validERPLRow(t *testing.T) []byte {
	t.Helper()
	rows := EncodeERPLBlocks("t", []RPLEntry{
		{Score: 2, SID: 1, Doc: 3, End: 40, Length: 7},
		{Score: 1, SID: 1, Doc: 3, End: 90, Length: 9},
		{Score: 5, SID: 1, Doc: 4, End: 11, Length: 2},
	})
	return rows[0].Value
}

func TestDecodersRejectCorruptInput(t *testing.T) {
	rplVal := validRPLRow(t)
	erplVal := validERPLRow(t)

	truncations := func(v []byte) map[string][]byte {
		out := map[string][]byte{
			"empty":    {},
			"one-byte": v[:1],
		}
		for _, cut := range []int{2, len(v) / 2, len(v) - 1} {
			if cut > 0 && cut < len(v) {
				out["cut-"+string(rune('0'+cut%10))] = v[:cut]
			}
		}
		return out
	}

	// Posting values.
	post := postingValue([]Pos{{Doc: 1, Off: 2}, {Doc: 1, Off: 9}, {Doc: 3, Off: 4}})
	for name, v := range truncations(post) {
		v := v
		mustError(t, "decodePostingInto", name, func() error {
			_, err := decodePostingInto(nil, v)
			return err
		})
	}
	mustError(t, "decodePostingInto", "bad-format-byte", func() error {
		_, err := decodePostingInto(nil, []byte{0x7f, 0, 1})
		return err
	})

	// Skip-format fragments: the sequential decoder and the in-place span
	// counter reject the same damaged headers and entries. The counter is
	// asked for a span that covers the whole fragment, so it walks from
	// entry 0 into the first checkpoint, jumps to the last and walks to
	// the end.
	skip := postingValue(sweepPositions(100)) // three checkpoints
	ckpt := func(v []byte, c int) []byte {
		return v[postingHeaderSize+c*checkpointSize:][:checkpointSize]
	}
	damaged := map[string]func(v []byte) []byte{
		"truncated-last-entry": func(v []byte) []byte { return v[:len(v)-1] },
		"count-overruns-body": func([]byte) []byte {
			// Ten entries claimed; nine bytes cannot hold them.
			return []byte{postingFormatSkip, 0, 10, 0x01, 0x05, 2, 2, 2, 2, 2, 2, 2}
		},
		"checkpoint-offset-past-body": func(v []byte) []byte {
			binary.BigEndian.PutUint16(ckpt(v, 2)[8:], 0xffff)
			return v
		},
		"checkpoint-offsets-descend": func(v []byte) []byte {
			copy(ckpt(v, 1)[8:], ckpt(v, 0)[8:])
			return v
		},
		"checkpoint-positions-descend": func(v []byte) []byte {
			copy(ckpt(v, 2)[:8], ckpt(v, 0)[:8])
			return v
		},
	}
	for name, damage := range damaged {
		v := damage(append([]byte(nil), skip...))
		mustError(t, "decodePostingInto", name, func() error {
			_, err := decodePostingInto(nil, v)
			return err
		})
		mustError(t, "spanInFragment", name, func() error {
			_, _, err := spanInFragment(v, Pos{}, MaxPos, nil)
			return err
		})
	}
	// A checkpoint that is in order within the table but not within the
	// list is only visible to a reader that decodes the entries before it.
	unordered := append([]byte(nil), skip...)
	clear(ckpt(unordered, 0)[:8])
	mustError(t, "decodePostingInto", "checkpoint-below-entry-before-it", func() error {
		_, err := decodePostingInto(nil, unordered)
		return err
	})

	// Block rows: truncations of valid encodings, plus targeted headers.
	for name, v := range truncations(rplVal) {
		v := v
		mustError(t, "decodeRPLBlock", name, func() error {
			_, err := decodeRPLBlock(v)
			return err
		})
	}
	for name, v := range truncations(erplVal) {
		v := v
		mustError(t, "decodeERPLBlockInto", name, func() error {
			_, err := decodeERPLBlockInto(nil, v)
			return err
		})
	}
	// erplBlockBounds and rplRowCount read only the header, so they
	// tolerate payload-only truncation; they must still reject a cut inside
	// the header itself.
	for _, cut := range []int{0, 1, 2} {
		mustError(t, "erplBlockBounds", "header-cut", func() error {
			_, _, _, err := erplBlockBounds(erplVal[:cut])
			return err
		})
	}
	for _, cut := range []int{0, 1} {
		mustError(t, "rplRowCount", "header-cut", func() error {
			_, err := rplRowCount(rplVal[:cut])
			return err
		})
	}
	mustError(t, "decodeRPLBlock", "wrong-format-byte", func() error {
		bad := append([]byte(nil), rplVal...)
		bad[0] = 0x01
		_, err := decodeRPLBlock(bad)
		return err
	})
	mustError(t, "decodeRPLBlock", "huge-count", func() error {
		// Count uvarint claims ~2^28 entries; must not allocate/panic.
		_, err := decodeRPLBlock([]byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 2, 3, 4, 5, 6, 7, 8})
		return err
	})
	mustError(t, "decodeERPLBlockInto", "huge-count", func() error {
		_, err := decodeERPLBlockInto(nil, []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1, 1})
		return err
	})
	mustError(t, "erplBlockBounds", "truncated-header", func() error {
		_, _, _, err := erplBlockBounds([]byte{0x02, 0x03})
		return err
	})

	// Retired formats, through the readers a query or a commit runs: a
	// list value of the row-per-entry format (12 bytes: score bits and
	// length), a posting fragment of the 0x02 format, and two block runs
	// written under one (term, sid) whose blocks overlap. Old rows must
	// ask for a rebuild.
	oldRow := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, math.Float64bits(1.5)), 7)
	oldList := func(t *testing.T) *Store {
		st := openEmptyStore(t)
		e := RPLEntry{Score: 1.5, SID: 1, Doc: 2, End: 3, Length: 7}
		if err := st.RPLs.Put(rplKey("t", e), oldRow); err != nil {
			t.Fatal(err)
		}
		if err := st.ERPLs.Put(erplKey("t", e), oldRow); err != nil {
			t.Fatal(err)
		}
		return st
	}
	oldPosting := func(t *testing.T) *Store {
		st := openEmptyStore(t)
		ps := []Pos{{Doc: 1, Off: 2}, {Doc: 1, Off: 9}, {Doc: 3, Off: 4}}
		if err := st.Postings.Put(postingKey("t", ps[0]), oldPostingValue(ps)); err != nil {
			t.Fatal(err)
		}
		return st
	}
	overlapping := func(t *testing.T) *Store {
		st := openEmptyStore(t)
		var even, odd []RPLEntry
		for doc := uint32(0); doc < 20; doc++ {
			e := RPLEntry{Score: 1, SID: 1, Doc: doc, End: 5, Length: 2}
			if doc%2 == 0 {
				even = append(even, e)
			} else {
				odd = append(odd, e)
			}
		}
		writeBlocks(t, st, KindERPL, "t", even)
		writeBlocks(t, st, KindERPL, "t", odd)
		return st
	}
	drain := func(next func() (RPLEntry, bool, error)) error {
		for {
			if _, ok, err := next(); err != nil || !ok {
				return err
			}
		}
	}
	// reset reads the list as Merge does: through an iterator that walked
	// another sid's segment first and was Reset onto sid 1.
	reset := func(st *Store) error {
		var it ERPLIterator
		it.Reset(st, "t", 2)
		if err := drain(it.Next); err != nil {
			return err
		}
		it.Reset(st, "t", 1)
		return drain(it.Next)
	}
	for _, tc := range []struct {
		reader, input string
		store         func(*testing.T) *Store
		read          func(*Store) error
		rebuild       bool
	}{
		{"RPLIterator", "old-list-row", oldList, func(st *Store) error { return drain(NewRPLIterator(st, "t").Next) }, true},
		{"ERPLIterator", "old-list-row", oldList, func(st *Store) error { return drain(NewERPLIterator(st, "t", 1).Next) }, true},
		{"ERPLIterator.SkipTo", "old-list-row", oldList, func(st *Store) error {
			_, err := NewERPLIterator(st, "t", 1).SkipTo(9, 0)
			return err
		}, true},
		{"ERPLIterator.Reset", "old-list-row", oldList, reset, true},
		{"DropAllLists", "old-list-row", oldList, func(st *Store) error {
			_, err := DropAllLists(st)
			return err
		}, true},
		{"PostingIterator", "old-posting", oldPosting, func(st *Store) error {
			_, err := NewPostingIterator(st, "t").NextPosition()
			return err
		}, true},
		{"SpanProbe", "old-posting", oldPosting, func(st *Store) error {
			_, err := NewSpanProbe(st, "t").Count(Element{Doc: 1, End: 10, Length: 9})
			return err
		}, true},
		{"ERPLIterator", "overlapping-runs", overlapping, func(st *Store) error { return drain(NewERPLIterator(st, "t", 1).Next) }, false},
		{"ERPLIterator.SkipTo", "overlapping-runs", overlapping, func(st *Store) error {
			_, err := NewERPLIterator(st, "t", 1).SkipTo(100, 0)
			return err
		}, false},
		{"ERPLIterator.Reset", "overlapping-runs", overlapping, reset, false},
	} {
		st := tc.store(t)
		mustError(t, tc.reader, tc.input, func() error {
			err := tc.read(st)
			if err != nil && tc.rebuild && !isOldFormat(err) {
				t.Errorf("%s/%s: error %q does not ask for a rebuild", tc.reader, tc.input, err)
			}
			return err
		})
	}

	// Elements table.
	mustError(t, "decodeElementsKey", "short", func() error {
		_, _, _, _, err2 := decodeElementsKeyWrap([]byte{1, 2, 3})
		return err2
	})
	mustError(t, "decodeElementsValue", "short", func() error {
		_, err := decodeElementsValue([]byte{1, 2})
		return err
	})

	// Random flips over a valid block must never panic (errors optional:
	// some flips only perturb payload values).
	for i := 0; i < len(rplVal); i++ {
		bad := append([]byte(nil), rplVal...)
		bad[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("decodeRPLBlock: panic on flipped byte %d: %v", i, r)
				}
			}()
			_, _ = decodeRPLBlock(bad)
		}()
	}
	for i := 0; i < len(erplVal); i++ {
		bad := append([]byte(nil), erplVal...)
		bad[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("decodeERPLBlockInto: panic on flipped byte %d: %v", i, r)
				}
			}()
			_, _ = decodeERPLBlockInto(nil, bad)
		}()
	}
}

func decodeElementsKeyWrap(k []byte) (uint32, uint32, uint32, struct{}, error) {
	sid, doc, end, err := decodeElementsKey(k)
	return sid, doc, end, struct{}{}, err
}
