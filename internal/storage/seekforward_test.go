package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// checkSeekForward runs SeekForward(key) on the walking cursor and a Seek
// on a fresh one, and requires the same answer, the same pair under the
// cursor, and the same continuation.
func checkSeekForward(t *testing.T, tr *Tree, walk *Cursor, key []byte) {
	t.Helper()
	fresh := tr.Cursor()
	wantOK, wantErr := fresh.Seek(key)
	gotOK, gotErr := walk.SeekForward(key)
	if gotErr != nil || wantErr != nil {
		t.Fatalf("target %q: SeekForward err %v, Seek err %v", key, gotErr, wantErr)
	}
	if gotOK != wantOK || walk.Valid() != fresh.Valid() ||
		!bytes.Equal(walk.Key(), fresh.Key()) || !bytes.Equal(walk.Value(), fresh.Value()) {
		t.Fatalf("target %q: SeekForward = (%v, %q), Seek = (%v, %q)", key, gotOK, walk.Key(), wantOK, fresh.Key())
	}
	if !gotOK {
		return
	}
	// Same position, not just the same key: both must continue alike.
	probe := *walk
	wantOK, _ = fresh.Next()
	gotOK, _ = probe.Next()
	if gotOK != wantOK || !bytes.Equal(probe.Key(), fresh.Key()) {
		t.Fatalf("Next after target %q: SeekForward cursor %q, Seek cursor %q", key, probe.Key(), fresh.Key())
	}
}

func seqKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// TestSeekForwardMatchesSeek walks one cursor forward through trees of one
// leaf to many, intact and thinned by deletes, and compares every
// SeekForward with a fresh Seek: targets at the current key, at the held
// leaf's last key, one past it (the first fall-through to a descent),
// between keys, below the cursor, and past the end of the tree.
func TestSeekForwardMatchesSeek(t *testing.T) {
	for _, n := range []int{1, 2, 40, 400, 6000} {
		for _, thinned := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/thinned=%v", n, thinned), func(t *testing.T) {
				tr := newTestTree(t)
				// Even ids only, so odd ids probe the gaps.
				for i := 0; i < n; i++ {
					if err := tr.Put(seqKey(2*i), []byte(fmt.Sprint(i))); err != nil {
						t.Fatal(err)
					}
				}
				if thinned {
					// Empty whole leaves in the middle (reclaimed, or left
					// for cursors to skip) and leave the rest underfull.
					for i := 0; i < n; i++ {
						if (i > n/4 && i < n/2) || i%3 == 1 {
							if _, err := tr.Delete(seqKey(2 * i)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				rng := rand.New(rand.NewSource(int64(n)))
				walk := tr.Cursor()
				checkSeekForward(t, tr, walk, seqKey(0)) // unpositioned cursor
				for walk.Valid() {
					cur := append([]byte(nil), walk.Key()...)
					last := append([]byte(nil), walk.leaf.cells[len(walk.leaf.cells)-1].key...)
					checkSeekForward(t, tr, walk, cur)
					// A target below the cursor is an ordinary seek; coming
					// back gallops across whatever lies between.
					below := []byte("a")
					if rng.Intn(2) == 0 {
						below = seqKey(rng.Intn(2 * n))
					}
					checkSeekForward(t, tr, walk, below)
					checkSeekForward(t, tr, walk, cur)
					switch rng.Intn(5) {
					case 0:
						checkSeekForward(t, tr, walk, last)
					case 1:
						checkSeekForward(t, tr, walk, append(last, 0)) // one past the leaf
					case 2:
						checkSeekForward(t, tr, walk, append(cur, 0)) // the next cell
					default:
						var id int
						fmt.Sscanf(string(cur), "key-%d", &id)
						checkSeekForward(t, tr, walk, seqKey(id+1+rng.Intn(90)))
					}
					if bytes.Equal(walk.Key(), cur) {
						if _, err := walk.Next(); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkSeekForward(t, tr, walk, []byte("zzz")) // past the end, invalid cursor
				checkSeekForward(t, tr, walk, seqKey(0))
				checkSeekForward(t, tr, walk, []byte("zzz")) // past the end, valid cursor
			})
		}
	}
}

// An in-leaf SeekForward is a step: it is counted in Nexts, not Seeks, it
// touches no page, and it does not allocate.
func TestSeekForwardInLeafIsAStep(t *testing.T) {
	tr := newTestTree(t)
	for i := 0; i < 3000; i++ {
		if err := tr.Put(seqKey(2*i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cur := tr.Cursor()
	if ok, err := cur.Seek(seqKey(3000)); !ok || err != nil {
		t.Fatalf("Seek = (%v, %v)", ok, err)
	}
	cells := cur.leaf.cells
	if cur.index+8 >= len(cells) {
		t.Fatalf("fixture: cursor at cell %d of %d, want room to step", cur.index, len(cells))
	}
	start := cur.index
	target := append([]byte(nil), cells[start+7].key...)
	target[len(target)-1]-- // the gap below a key seven cells ahead
	before := tr.db.Stats()
	if ok, err := cur.SeekForward(target); !ok || err != nil || cur.index != start+7 {
		t.Fatalf("SeekForward = (%v, %v) at cell %d, want cell %d", ok, err, cur.index, start+7)
	}
	d := tr.db.Stats().Sub(before)
	if d.Seeks != 0 || d.Nexts != 1 || d.CacheHits+d.CacheMisses != 0 {
		t.Fatalf("in-leaf SeekForward counted %d seeks, %d nexts, %d page touches; want 0, 1, 0",
			d.Seeks, d.Nexts, d.CacheHits+d.CacheMisses)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		cur.index = start
		if ok, err := cur.SeekForward(target); !ok || err != nil {
			t.Fatalf("SeekForward = (%v, %v)", ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("in-leaf SeekForward allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzCursorSeekForward builds a tree from the first half of the input
// (two-byte keys, a delete wherever a key repeats) and drives one cursor
// with the second half as a target sequence, comparing every SeekForward
// with a fresh Seek.
func FuzzCursorSeekForward(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0, 0, 0, 2, 0, 3, 0, 9, 0, 1})
	ascending := make([]byte, 0, 2400)
	for i := 0; i < 1200; i++ {
		ascending = binary.BigEndian.AppendUint16(ascending, uint16(i*5))
	}
	f.Add(ascending, []byte{0, 7, 0, 8, 1, 0, 1, 1, 9, 0, 0, 1, 23, 112, 255, 255})
	f.Fuzz(func(t *testing.T, contents, targets []byte) {
		tr := newTestTree(t)
		present := make(map[uint16]bool)
		for ; len(contents) >= 2; contents = contents[2:] {
			k := binary.BigEndian.Uint16(contents)
			if present[k] {
				if _, err := tr.Delete(contents[:2]); err != nil {
					t.Fatal(err)
				}
			} else if err := tr.Put(contents[:2], contents[:1]); err != nil {
				t.Fatal(err)
			}
			present[k] = !present[k]
		}
		walk := tr.Cursor()
		for ; len(targets) >= 2; targets = targets[2:] {
			checkSeekForward(t, tr, walk, targets[:2])
		}
	})
}
