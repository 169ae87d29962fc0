package index

import (
	"fmt"
	"sort"
	"strings"
)

// Stopword handling: terms in the stopword set are excluded from the
// PostingLists and TermStats tables at build/append time and filtered out
// of queries by the engine. The set is persisted in IndexMeta so build
// and query time always agree.

const stopwordsKeyPrefix = "stopwords-"

// stopwordChunk keeps each stored chunk under the storage value limit.
const stopwordChunk = 2500

// PutStopwords persists the stopword set (replacing any previous set) and
// primes the in-memory cache. Must be called before BuildBase for the set
// to affect indexing.
func (s *Store) PutStopwords(words []string) error {
	set := make(map[string]bool, len(words))
	var uniq []string
	for _, w := range words {
		w = strings.ToLower(strings.TrimSpace(w))
		if w == "" || set[w] {
			continue
		}
		set[w] = true
		uniq = append(uniq, w)
	}
	sort.Strings(uniq)
	joined := strings.Join(uniq, " ")
	for i := 0; ; i++ {
		lo := i * stopwordChunk
		if lo >= len(joined) && i > 0 {
			break
		}
		hi := lo + stopwordChunk
		if hi > len(joined) {
			hi = len(joined)
		}
		key := fmt.Sprintf("%s%04d", stopwordsKeyPrefix, i)
		if err := s.Meta.Put([]byte(key), []byte(joined[lo:hi])); err != nil {
			return err
		}
		if hi == len(joined) {
			break
		}
	}
	s.stopSet = set
	return nil
}

// Stopwords returns the persisted stopword set (possibly empty), cached
// after the first load.
func (s *Store) Stopwords() (map[string]bool, error) {
	if s.stopSet != nil {
		return s.stopSet, nil
	}
	cur := s.Meta.Cursor()
	prefix := []byte(stopwordsKeyPrefix)
	var sb strings.Builder
	ok, err := cur.SeekPrefix(prefix)
	for ; ok; ok, err = cur.NextPrefix(prefix) {
		sb.Write(cur.Value())
	}
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, w := range strings.Fields(sb.String()) {
		set[w] = true
	}
	s.stopSet = set
	return set, nil
}

// FilterStopwords returns terms with stopwords removed, preserving order.
func (s *Store) FilterStopwords(terms []string) ([]string, error) {
	set, err := s.Stopwords()
	if err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return terms, nil
	}
	out := terms[:0:0]
	for _, t := range terms {
		if !set[t] {
			out = append(out, t)
		}
	}
	return out, nil
}

// DefaultStopwords is a compact English stopword list in the INEX-engine
// tradition. Opt in via trex.Options.Stopwords.
var DefaultStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from",
	"has", "have", "he", "in", "is", "it", "its", "of", "on", "or", "that",
	"the", "this", "to", "was", "we", "were", "which", "will", "with",
}
