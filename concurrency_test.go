package trex

import (
	"fmt"
	"sync"
	"testing"

	"trex/internal/index"
)

// TestConcurrentReaders exercises the documented concurrency contract:
// any number of concurrent readers. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	eng := testEngine(t, 25, 101)
	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//bdy//*[about(., model checking)]`,
	}
	for _, q := range queries {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}
	// Reference results, single-threaded.
	want := make(map[string]*Result)
	for _, q := range queries {
		r, err := eng.Query(q, 10, MethodERA)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			methods := []Method{MethodERA, MethodTA, MethodMerge, MethodNRA}
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				m := methods[(w+i)%len(methods)]
				r, err := eng.Query(q, 10, m)
				if err != nil {
					errs <- err
					return
				}
				ref := want[q]
				if len(r.Answers) != len(ref.Answers) {
					errs <- errMismatch(q)
					return
				}
				for j := range ref.Answers {
					if r.Answers[j] != ref.Answers[j] {
						errs <- errMismatch(q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch string

func (e errMismatch) Error() string { return "concurrent result mismatch for " + string(e) }

// TestConcurrentQueryStress hammers one engine from many goroutines with
// mixed methods, interleaved stats snapshots, and enough distinct translations
// to overflow the LRU translation cache. Run with -race; this is the
// serving pattern of the web API under load.
func TestConcurrentQueryStress(t *testing.T) {
	eng := testEngine(t, 25, 101)
	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//bdy//*[about(., model checking)]`,
	}
	for _, q := range queries {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}
	methods := []Method{MethodERA, MethodTA, MethodMerge, MethodNRA, MethodAuto}

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w % 4 {
			case 0, 1: // query traffic, every method
				for i := 0; i < 20; i++ {
					q := queries[(w+i)%len(queries)]
					m := methods[(w+i)%len(methods)]
					if _, err := eng.Query(q, 5, m); err != nil {
						errs <- err
						return
					}
				}
			case 2: // stats snapshots (the experiment harness pattern)
				prev := eng.DB().Stats()
				for i := 0; i < 200; i++ {
					st := eng.DB().Stats()
					d := st.Sub(prev)
					if d.Gets >= 1<<63 || d.Seeks >= 1<<63 || d.Nexts >= 1<<63 {
						errs <- errMismatch("stats went backwards")
						return
					}
					prev = st
					eng.DB().PageCount()
				}
			case 3: // translation churn: distinct queries overflow the LRU
				for i := 0; i < 300; i++ {
					q := fmt.Sprintf(`//article[about(., stress%d w%d)]`, i, w)
					if _, err := eng.Translate(q); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The churn worker pushed well past the cache bound; eviction must
	// have kept it at the limit instead of wiping it.
	eng.trMu.Lock()
	size, lruLen := len(eng.trCache), eng.trLRU.Len()
	eng.trMu.Unlock()
	if size > translationCacheSize {
		t.Fatalf("translation cache grew to %d entries (bound %d)", size, translationCacheSize)
	}
	if size != lruLen {
		t.Fatalf("translation cache map (%d) and LRU list (%d) diverged", size, lruLen)
	}
	if size == 0 {
		t.Fatal("translation cache empty after stress (wiped instead of evicted)")
	}
}

// TestTranslationCacheLRU pins the eviction policy: filling the cache one
// past its bound evicts exactly the least recently used entry, not the
// whole cache.
func TestTranslationCacheLRU(t *testing.T) {
	eng := testEngine(t, 5, 7)
	mk := func(i int) string { return fmt.Sprintf(`//article[about(., lru%d)]`, i) }
	for i := 0; i < translationCacheSize; i++ {
		if _, err := eng.Translate(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 becomes the LRU victim.
	if _, err := eng.Translate(mk(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Translate(mk(translationCacheSize)); err != nil {
		t.Fatal(err)
	}
	eng.trMu.Lock()
	defer eng.trMu.Unlock()
	if got := len(eng.trCache); got != translationCacheSize {
		t.Fatalf("cache size = %d, want %d (evict one, not all)", got, translationCacheSize)
	}
	key := func(i int) string { return "vague\x00" + mk(i) }
	if _, ok := eng.trCache[key(1)]; ok {
		t.Fatal("LRU victim (entry 1) still cached")
	}
	for _, i := range []int{0, 2, translationCacheSize} {
		if _, ok := eng.trCache[key(i)]; !ok {
			t.Fatalf("entry %d missing: eviction dropped more than the LRU victim", i)
		}
	}
}
