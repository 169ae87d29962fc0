package retrieval

// SIDSet is a bitmap over summary sids: a word per 64 sids up to the
// largest one in the set, so a membership test is a shift and a mask.
// TA and NRA test every RPL entry they read against the query's sids with
// it, and the engine's combine step every answer against a clause's.
type SIDSet []uint64

// NewSIDSet returns the set holding sids.
func NewSIDSet(sids []uint32) SIDSet {
	var top uint32
	for _, s := range sids {
		top = max(top, s)
	}
	set := make(SIDSet, top/64+1)
	for _, s := range sids {
		set[s/64] |= 1 << (s % 64)
	}
	return set
}

// Has reports whether sid is in the set.
func (s SIDSet) Has(sid uint32) bool {
	w := int(sid / 64)
	return w < len(s) && s[w]&(1<<(sid%64)) != 0
}
