package retrieval

import "testing"

func TestSIDSetHas(t *testing.T) {
	set := NewSIDSet([]uint32{0, 63, 64, 130})
	for sid, want := range map[uint32]bool{
		0: true, 1: false, // the first bit of the first word
		62: false, 63: true, 64: true, 65: false, // the word boundary
		129: false, 130: true, // the set's top
		131: false, 191: false, 192: false, 1 << 31: false, // past it
	} {
		if got := set.Has(sid); got != want {
			t.Errorf("Has(%d) = %v, want %v", sid, got, want)
		}
	}
	if empty := NewSIDSet(nil); empty.Has(0) || empty.Has(64) {
		t.Error("the empty set has a member")
	}
	if top := NewSIDSet([]uint32{63}); !top.Has(63) || top.Has(64) || len(top) != 1 {
		t.Errorf("a set topped at 63 = %v", top)
	}
}
