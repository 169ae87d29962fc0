package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildImage writes a two-table segment with n rows each and returns the
// image plus the row sets.
func buildImage(t *testing.T, n int, epoch uint64) ([]byte, [][2][]byte) {
	t.Helper()
	w := NewWriter()
	var rows [][2][]byte
	w.BeginTable("alpha")
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v := []byte(fmt.Sprintf("value-%05d-%s", i, bytes.Repeat([]byte{'x'}, i%7)))
		if err := w.Append(k, v); err != nil {
			t.Fatalf("Append: %v", err)
		}
		rows = append(rows, [2][]byte{k, v})
	}
	w.BeginTable("beta")
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("b%04d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("Append beta: %v", err)
		}
	}
	img, err := w.Finish(epoch)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return img, rows
}

func TestRoundTrip(t *testing.T) {
	img, rows := buildImage(t, 300, 42)
	r, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if r.Epoch() != 42 {
		t.Fatalf("epoch = %d, want 42", r.Epoch())
	}
	ta := r.Table("alpha")
	if ta == nil || ta.Rows() != 300 {
		t.Fatalf("alpha table missing or wrong rows")
	}
	for _, kv := range rows {
		v, ok := ta.Get(kv[0])
		if !ok || !bytes.Equal(v, kv[1]) {
			t.Fatalf("Get(%q) = %q, %v", kv[0], v, ok)
		}
	}
	if _, ok := ta.Get([]byte("nope")); ok {
		t.Fatal("Get on absent key reported ok")
	}
	if r.Table("gamma") != nil {
		t.Fatal("phantom table")
	}

	// Full cursor walk matches the written order.
	c := ta.Cursor()
	i := 0
	for ok, _ := c.First(); ok; ok, _ = c.Next() {
		if !bytes.Equal(c.Key(), rows[i][0]) || !bytes.Equal(c.Value(), rows[i][1]) {
			t.Fatalf("row %d mismatch", i)
		}
		i++
	}
	if i != 300 {
		t.Fatalf("walked %d rows, want 300", i)
	}

	// SeekPrefix/NextPrefix mirror the storage cursor contract.
	ok, _ := c.SeekPrefix([]byte("key-0002"))
	if !ok || string(c.Key()) != "key-00020" {
		t.Fatalf("SeekPrefix landed on %q", c.Key())
	}
	cnt := 1
	for ok, _ = c.NextPrefix([]byte("key-0002")); ok; ok, _ = c.NextPrefix([]byte("key-0002")) {
		cnt++
	}
	if cnt != 10 {
		t.Fatalf("prefix walk saw %d rows, want 10", cnt)
	}
}

func TestWriterRejectsDisorder(t *testing.T) {
	w := NewWriter()
	w.BeginTable("t")
	if err := w.Append([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("a"), nil); err == nil {
		t.Fatal("out-of-order Append accepted")
	}
	if _, err := w.Finish(0); err == nil {
		t.Fatal("Finish after error succeeded")
	}
}

func TestCorruptImagesError(t *testing.T) {
	img, _ := buildImage(t, 50, 7)
	if _, err := OpenBytes(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := OpenBytes(img[:10]); err == nil {
		t.Fatal("truncated image accepted")
	}
	for _, off := range []int{0, 5, len(img) / 2, len(img) - 10, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0xff
		if _, err := OpenBytes(bad); err == nil {
			t.Fatalf("corruption at %d accepted", off)
		}
	}
}

// TestZeroAllocReads is the hot-path contract: Get, Seek and Next over
// the mapped bytes allocate nothing.
func TestZeroAllocReads(t *testing.T) {
	img, rows := buildImage(t, 500, 1)
	r, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	ta := r.Table("alpha")
	probe := rows[123][0]
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ta.Get(probe); !ok {
			t.Fatal("probe missing")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v/op", n)
	}
	c := ta.Cursor()
	if n := testing.AllocsPerRun(200, func() {
		if ok, _ := c.Seek(probe); !ok {
			t.Fatal("seek missed")
		}
		if ok, _ := c.Next(); !ok {
			t.Fatal("next missed")
		}
		_ = c.Key()
		_ = c.Value()
	}); n != 0 {
		t.Fatalf("Seek/Next allocates %v/op", n)
	}
}

func TestStoreCommitAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Current() != nil {
		t.Fatal("fresh store has a generation")
	}
	commit := func(epoch uint64, val string) {
		t.Helper()
		err := s.Commit(epoch, func(w *Writer) error {
			w.BeginTable("t")
			return w.Append([]byte("k"), []byte(val))
		})
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	commit(1, "one")
	commit(2, "two")
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	if v, ok := s.Get("t", []byte("k")); !ok || string(v) != "two" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.Swaps() != 2 || s.GensRetired() != 1 || s.GensLive() != 1 {
		t.Fatalf("counters: swaps=%d retired=%d live=%d", s.Swaps(), s.GensRetired(), s.GensLive())
	}
	// The superseded file is gone; only SEG-2 and the manifest remain.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Fatalf("dir holds %d entries", len(ents))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Current() == nil || s2.Current().Epoch() != 2 {
		t.Fatal("reopen lost the committed generation")
	}
	if v, ok := s2.Get("t", []byte("k")); !ok || string(v) != "two" {
		t.Fatalf("reopened Get = %q, %v", v, ok)
	}
}

// TestPinKeepsRetiredGenerationMapped proves a pinned reader's cursor
// survives a commit that retires its generation.
func TestPinKeepsRetiredGenerationMapped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.Commit(1, func(w *Writer) error {
		w.BeginTable("t")
		return w.Append([]byte("k"), []byte("old"))
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Pin()
	cur := s.ListCursor("t")
	if cur == nil {
		t.Fatal("no cursor")
	}
	err = s.Commit(2, func(w *Writer) error {
		w.BeginTable("t")
		return w.Append([]byte("k"), []byte("new"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.GensLive() != 2 {
		t.Fatalf("live generations = %d, want 2 (old pinned)", s.GensLive())
	}
	if ok, _ := cur.SeekPrefix([]byte("k")); !ok || string(cur.Value()) != "old" {
		t.Fatalf("pinned cursor reads %q", cur.Value())
	}
	s.Unpin()
	if s.GensLive() != 1 {
		t.Fatalf("live generations after unpin = %d, want 1", s.GensLive())
	}
	if v, ok := s.Get("t", []byte("k")); !ok || string(v) != "new" {
		t.Fatalf("current Get = %q, %v", v, ok)
	}
}

// TestCrashBeforeSwapLeavesOldGeneration simulates dying between the
// segment fsync and the manifest flip: the commit errors, the current
// generation is untouched, and a fresh open (the "restarted process")
// still serves the old generation while the orphan file is collected.
func TestCrashBeforeSwapLeavesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Commit(1, func(w *Writer) error {
		w.BeginTable("t")
		return w.Append([]byte("k"), []byte("old"))
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("crash")
	s.CrashBeforeSwap = func() error { return boom }
	err = s.Commit(2, func(w *Writer) error {
		w.BeginTable("t")
		return w.Append([]byte("k"), []byte("new"))
	})
	if err != boom {
		t.Fatalf("Commit error = %v, want crash", err)
	}
	if v, ok := s.Get("t", []byte("k")); !ok || string(v) != "old" {
		t.Fatalf("post-crash Get = %q, %v", v, ok)
	}
	// The orphan SEG-2 exists until a reopen collects it.
	if _, err := os.Stat(filepath.Join(dir, genName(2))); err != nil {
		t.Fatalf("orphan segment missing: %v", err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("t", []byte("k")); !ok || string(v) != "old" {
		t.Fatalf("reopened Get = %q, %v", v, ok)
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s2.Generation())
	}
	if _, err := os.Stat(filepath.Join(dir, genName(2))); !os.IsNotExist(err) {
		t.Fatal("orphan segment survived reopen")
	}
}

func TestMemoryStore(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	err := s.Commit(5, func(w *Writer) error {
		w.BeginTable("t")
		return w.Append([]byte("a"), []byte("1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("t", []byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.Current().Epoch() != 5 {
		t.Fatal("epoch lost")
	}
}

func TestReadAccounting(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	err := s.Commit(1, func(w *Writer) error {
		w.BeginTable("t")
		for i := 0; i < 10; i++ {
			if err := w.Append([]byte(fmt.Sprintf("k%02d", i)), []byte("vvvv")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := s.ListCursor("t")
	n := 0
	for ok, _ := c.First(); ok; ok, _ = c.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("walked %d rows", n)
	}
	if s.RowsRead() != 10 {
		t.Fatalf("RowsRead = %d, want 10", s.RowsRead())
	}
	if want := uint64(10 * (3 + 4)); s.BytesRead() != want {
		t.Fatalf("BytesRead = %d, want %d", s.BytesRead(), want)
	}
}
