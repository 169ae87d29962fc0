package index

import (
	"encoding/binary"
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

func validRPLRow(t *testing.T) ([]byte, []byte) {
	t.Helper()
	rows := EncodeRPLBlocks("t", randEntries(10, 1))
	return rows[0].Key, rows[0].Value
}

func validERPLRow(t *testing.T) ([]byte, []byte) {
	t.Helper()
	rows := EncodeERPLBlocks("t", []RPLEntry{
		{Score: 2, SID: 1, Doc: 3, End: 40, Length: 7},
		{Score: 1, SID: 1, Doc: 3, End: 90, Length: 9},
		{Score: 5, SID: 1, Doc: 4, End: 11, Length: 2},
	})
	return rows[0].Key, rows[0].Value
}

func TestDecodersRejectCorruptInput(t *testing.T) {
	rplKey, rplVal := validRPLRow(t)
	erplKey, erplVal := validERPLRow(t)

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
	mustError(t, "decodePostingInto", "count-overruns-payload", func() error {
		// Delta header claims 1000 positions, payload holds none.
		_, err := decodePostingInto(nil, []byte{0x02, 0x03, 0xe8})
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
			_, _, err := (&SpanProbe{}).spanInFragment(v, Pos{}, MaxPos, nil)
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

	// v1 RPL / ERPL rows: short keys and short values.
	v1rpl := rplValue(RPLEntry{Score: 1, SID: 1, Doc: 2, End: 3, Length: 4})
	for _, tc := range []struct {
		name string
		k, v []byte
	}{
		{"short-key", []byte("t\x00abc"), v1rpl},
		{"no-nul-key", []byte("termwithoutnul"), v1rpl},
		{"short-value", rplKeyFor("t"), v1rpl[:7]},
	} {
		tc := tc
		mustError(t, "decodeRPL", tc.name, func() error {
			_, _, err := decodeRPL(tc.k, tc.v)
			return err
		})
		mustError(t, "decodeERPL", tc.name, func() error {
			_, _, err := decodeERPL(erplKeyFor("t"), tc.v[:7])
			return err
		})
	}

	// Block rows: truncations of valid encodings, plus targeted headers.
	for name, v := range truncations(rplVal) {
		v := v
		mustError(t, "decodeRPLRow", name, func() error {
			_, err := decodeRPLRow(rplKey, v)
			return err
		})
	}
	for name, v := range truncations(erplVal) {
		v := v
		mustError(t, "decodeERPLRowInto", name, func() error {
			_, err := decodeERPLRowInto(nil, erplKey, v)
			return err
		})
	}
	// erplRowStats reads only the header, so it tolerates payload-only
	// truncation; it must still reject a cut inside the header itself.
	for _, cut := range []int{0, 1, 2} {
		cut := cut
		mustError(t, "erplRowStats", "header-cut", func() error {
			_, _, _, err := erplRowStats(erplKey, erplVal[:cut])
			return err
		})
	}
	// Block rows are self-contained in the value; a short key only matters
	// on the v1 path (12-byte values).
	mustError(t, "decodeRPLRow", "short-key-v1", func() error {
		_, err := decodeRPLRow([]byte("t\x00ab"), v1rpl)
		return err
	})
	mustError(t, "decodeERPLRowInto", "short-key-v1", func() error {
		_, err := decodeERPLRowInto(nil, []byte("t\x00ab"), v1rpl)
		return err
	})
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
	mustError(t, "rplBlockMaxScore", "truncated-header", func() error {
		_, err := rplBlockMaxScore([]byte{0x02, 0x05, 0x00})
		return err
	})
	mustError(t, "erplBlockBounds", "truncated-header", func() error {
		_, _, _, err := erplBlockBounds([]byte{0x02, 0x03})
		return err
	})

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
					t.Errorf("decodeRPLRow: panic on flipped byte %d: %v", i, r)
				}
			}()
			_, _ = decodeRPLRow(rplKey, bad)
		}()
	}
	for i := 0; i < len(erplVal); i++ {
		bad := append([]byte(nil), erplVal...)
		bad[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("decodeERPLRowInto: panic on flipped byte %d: %v", i, r)
				}
			}()
			_, _ = decodeERPLRowInto(nil, erplKey, bad)
		}()
	}
}

// rplKeyFor / erplKeyFor build minimal well-formed keys for decoders whose
// error under test lives in the value.
func rplKeyFor(term string) []byte {
	return rplKey(term, RPLEntry{Score: 1, SID: 1, Doc: 1, End: 1})
}

func erplKeyFor(term string) []byte {
	return erplKey(term, RPLEntry{SID: 1, Doc: 1, End: 1})
}

func decodeElementsKeyWrap(k []byte) (uint32, uint32, uint32, struct{}, error) {
	sid, doc, end, err := decodeElementsKey(k)
	return sid, doc, end, struct{}{}, err
}
