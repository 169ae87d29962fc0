package index

// positionsInSpan returns the offsets of term occurrences strictly inside
// the element's span, in order.
func positionsInSpan(s *Store, term string, e Element) ([]uint32, error) {
	var out []uint32
	_, err := NewSpanProbe(s, term).span(e, &out)
	return out, err
}

// maxPhraseGap is the largest byte gap tolerated between the end of one
// phrase word and the start of the next: a space plus one punctuation
// byte. Kept below 3 so that even a minimal intervening tag ("<b>")
// breaks the phrase.
const maxPhraseGap = 2

// PhraseFreqInSpan counts adjacent occurrences of the word sequence
// strictly inside the element's span: each next word must start within
// maxPhraseGap bytes of the previous word's end. Quoted NEXI phrases
// ("genetic algorithm") use this for their proximity bonus.
func PhraseFreqInSpan(s *Store, words []string, e Element) (int, error) {
	if len(words) == 0 {
		return 0, nil
	}
	if len(words) == 1 {
		return TFInSpan(s, words[0], e)
	}
	positions := make([][]uint32, len(words))
	for i, w := range words {
		ps, err := positionsInSpan(s, w, e)
		if err != nil {
			return 0, err
		}
		if len(ps) == 0 {
			return 0, nil
		}
		positions[i] = ps
	}
	count := 0
	for _, start := range positions[0] {
		cur := start + uint32(len(words[0]))
		matched := true
		for j := 1; j < len(words); j++ {
			next, ok := firstInWindow(positions[j], cur, cur+maxPhraseGap)
			if !ok {
				matched = false
				break
			}
			cur = next + uint32(len(words[j]))
		}
		if matched {
			count++
		}
	}
	return count, nil
}

// firstInWindow returns the first offset in sorted ps with lo <= off <= hi.
func firstInWindow(ps []uint32, lo, hi uint32) (uint32, bool) {
	// Binary search for lower bound.
	a, b := 0, len(ps)
	for a < b {
		mid := (a + b) / 2
		if ps[mid] < lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if a < len(ps) && ps[a] <= hi {
		return ps[a], true
	}
	return 0, false
}
