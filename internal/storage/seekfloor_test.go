package storage

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeekFloorBasic(t *testing.T) {
	tr := newTestTree(t)
	for i := 0; i < 1000; i += 10 { // keys 0, 10, ..., 990
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cur := tr.Cursor()
	// Exact hit.
	ok, err := cur.SeekFloor([]byte("k0500"))
	if err != nil || !ok || string(cur.Key()) != "k0500" {
		t.Fatalf("exact SeekFloor = (%v, %v, %q)", ok, err, cur.Key())
	}
	// Between keys: floor is the lower neighbor.
	ok, err = cur.SeekFloor([]byte("k0505"))
	if err != nil || !ok || string(cur.Key()) != "k0500" {
		t.Fatalf("between SeekFloor = (%v, %v, %q)", ok, err, cur.Key())
	}
	// Below the smallest key: no floor.
	ok, err = cur.SeekFloor([]byte("a"))
	if err != nil || ok {
		t.Fatalf("below-min SeekFloor = (%v, %v)", ok, err)
	}
	// Above the largest key: floor is the max.
	ok, err = cur.SeekFloor([]byte("z"))
	if err != nil || !ok || string(cur.Key()) != "k0990" {
		t.Fatalf("above-max SeekFloor = (%v, %v, %q)", ok, err, cur.Key())
	}
	// Next after a floor continues in order.
	ok, err = cur.SeekFloor([]byte("k0505"))
	if err != nil || !ok {
		t.Fatal("reseek failed")
	}
	ok, err = cur.Next()
	if err != nil || !ok || string(cur.Key()) != "k0510" {
		t.Fatalf("Next after floor = (%v, %v, %q)", ok, err, cur.Key())
	}
}

func TestSeekFloorEmptyTree(t *testing.T) {
	tr := newTestTree(t)
	cur := tr.Cursor()
	if ok, err := cur.SeekFloor([]byte("x")); ok || err != nil {
		t.Fatalf("SeekFloor on empty = (%v, %v)", ok, err)
	}
}

func TestSeekFloorLeafBoundaries(t *testing.T) {
	// Dense keys force many leaves; probe around every key to hit the
	// leftmost-cell-of-leaf climb path.
	tr := newTestTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i*2)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cur := tr.Cursor()
	for i := 0; i < n; i += 7 {
		probe := []byte(fmt.Sprintf("key-%06d", i*2+1)) // between i*2 and i*2+2
		ok, err := cur.SeekFloor(probe)
		if err != nil || !ok {
			t.Fatalf("SeekFloor(%s) = (%v, %v)", probe, ok, err)
		}
		want := fmt.Sprintf("key-%06d", i*2)
		if string(cur.Key()) != want {
			t.Fatalf("SeekFloor(%s) = %q, want %q", probe, cur.Key(), want)
		}
	}
}

// Property: SeekFloor(k) returns the greatest stored key <= k, on random
// key sets and probes.
func TestQuickSeekFloor(t *testing.T) {
	f := func(keys []string, probes []string) bool {
		db := OpenMemory()
		defer db.Close()
		tr, err := db.CreateTable("q")
		if err != nil {
			return false
		}
		var stored []string
		seen := make(map[string]bool)
		for _, k := range keys {
			if len(k) == 0 || len(k) > MaxKeySize || seen[k] {
				continue
			}
			seen[k] = true
			stored = append(stored, k)
			if err := tr.Put([]byte(k), []byte("v")); err != nil {
				return false
			}
		}
		sort.Strings(stored)
		cur := tr.Cursor()
		for _, p := range probes {
			if len(p) == 0 || len(p) > MaxKeySize {
				continue
			}
			// Model: index of last stored key <= p.
			i := sort.SearchStrings(stored, p)
			if i < len(stored) && stored[i] == p {
				// exact
			} else {
				i--
			}
			ok, err := cur.SeekFloor([]byte(p))
			if err != nil {
				return false
			}
			if i < 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || string(cur.Key()) != stored[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// A reused cursor must land where a fresh one does, whatever it did
// before: SeekFloor keeps its descent path on the cursor, so Seek,
// SeekFloor and SeekPrefix are interleaved on one cursor and every result
// is compared with a fresh cursor's. Probes just below a leaf's first key
// take the climb-to-left-sibling path with frames left by the last call.
func TestCursorReuseMatchesFresh(t *testing.T) {
	tr := newTestTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i*2)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	type op func(c *Cursor, key []byte) (bool, error)
	ops := []op{
		func(c *Cursor, k []byte) (bool, error) { return c.Seek(k) },
		func(c *Cursor, k []byte) (bool, error) { return c.SeekFloor(k) },
		func(c *Cursor, k []byte) (bool, error) { return c.SeekPrefix(k[:len(k)-1]) },
	}
	reused := tr.Cursor()
	for i := -1; i <= 2*n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		if i < 0 {
			key = []byte("a")
		}
		for j := range ops {
			do := ops[(i+j+3)%len(ops)]
			fresh := tr.Cursor()
			wantOK, wantErr := do(fresh, key)
			gotOK, gotErr := do(reused, key)
			if gotOK != wantOK || gotErr != nil || wantErr != nil || string(reused.Key()) != string(fresh.Key()) {
				t.Fatalf("probe %q: reused cursor = (%v, %v, %q), fresh = (%v, %v, %q)",
					key, gotOK, gotErr, reused.Key(), wantOK, wantErr, fresh.Key())
			}
			if !gotOK {
				continue
			}
			// The position must also continue identically.
			wantOK, _ = fresh.Next()
			gotOK, _ = reused.Next()
			if gotOK != wantOK || string(reused.Key()) != string(fresh.Key()) {
				t.Fatalf("Next after probe %q: reused %q, fresh %q", key, reused.Key(), fresh.Key())
			}
		}
	}
}

func TestSeekFloorReusedCursorDoesNotAllocate(t *testing.T) {
	tr := newTestTree(t)
	for i := 0; i < 3000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i*2)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cur := tr.Cursor()
	probe := []byte("key-003001")
	if allocs := testing.AllocsPerRun(200, func() {
		if ok, err := cur.SeekFloor(probe); !ok || err != nil {
			t.Fatalf("SeekFloor = (%v, %v)", ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("SeekFloor on a reused cursor allocates %.1f times per call, want 0", allocs)
	}
}
