package segment

import (
	"fmt"
	"testing"
)

// FuzzReader throws arbitrary bytes at the segment opener — footer,
// skip-directory and fence decoding — and, when an image validates,
// drives the full read surface over it. The contract: corrupt bytes
// produce (nil, error), never a panic, and never an out-of-bounds read
// past the image (the Go runtime turns one into a panic, which the fuzz
// engine reports).
//
// Run via `make fuzz` or directly:
//
//	go test ./internal/segment -fuzz FuzzReader -fuzztime 10s
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(headMagic))
	f.Add([]byte(headMagic + tailMagic))
	w := NewWriter()
	w.BeginTable("t")
	for i := 0; i < 40; i++ {
		_ = w.Append([]byte(fmt.Sprintf("key%03d", i)), []byte("value"))
	}
	w.BeginTable("u")
	_ = w.Append([]byte("only"), nil)
	img, err := w.Finish(9)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	// Seed a few targeted corruptions: footer offset, directory, crc.
	for _, off := range []int{len(img) - 9, len(img) - 16, len(img) / 2, len(headMagic) + 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		// A validated image must serve reads without faulting.
		for _, name := range []string{"t", "u", "missing"} {
			tb := r.Table(name)
			if tb == nil {
				continue
			}
			_, _ = tb.Get([]byte("key005"))
			c := tb.Cursor()
			for ok, _ := c.First(); ok; ok, _ = c.Next() {
				_ = c.Key()
				_ = c.Value()
			}
			_, _ = c.SeekPrefix([]byte("key"))
		}
	})
}
