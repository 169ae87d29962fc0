package planner

import (
	"sync"
	"testing"
	"time"
)

func feat() Features {
	return Features{
		NumSIDs: 2, NumTerms: 2, K: 10,
		RPLCovered: true, ERPLCovered: true,
		RPLEntries: 4000, RPLBytes: 64000, RPLBlocks: 32,
		ERPLEntries: 4000, ERPLBytes: 64000, ERPLBlocks: 32,
		PostingsPositions: 20000,
	}
}

func TestEligibility(t *testing.T) {
	f := feat()
	f.RPLCovered, f.ERPLCovered = false, false
	p := New()
	d := p.Plan(f)
	if d.Method != ERA {
		t.Fatalf("uncovered query planned %v, want era", d.Method)
	}
	if d.RunnerUp != -1 {
		t.Fatalf("runner-up %v with only ERA eligible", d.RunnerUp)
	}
	for m := Method(0); m < NumMethods; m++ {
		c := d.Candidates[m]
		if got, want := c.Eligible, m == ERA; got != want {
			t.Fatalf("method %v eligible=%v, want %v", m, got, want)
		}
	}

	f.RPLCovered = true
	d = p.Plan(f)
	if !d.Candidates[TA].Eligible || !d.Candidates[NRA].Eligible || d.Candidates[Merge].Eligible {
		t.Fatalf("RPL-only eligibility wrong: %+v", d.Candidates)
	}
}

func TestPriorMonotoneInVolume(t *testing.T) {
	small, big := feat(), feat()
	big.RPLEntries *= 8
	big.ERPLEntries *= 8
	big.PostingsPositions *= 8
	for m := Method(0); m < NumMethods; m++ {
		if Prior(m, big) < Prior(m, small) {
			t.Fatalf("%v prior not monotone in volume", m)
		}
	}
}

func TestTADepthRespectsK(t *testing.T) {
	f := feat()
	f.K = 5
	shallow := Prior(TA, f)
	f.K = 0 // all answers: full scan
	deep := Prior(TA, f)
	if shallow >= deep {
		t.Fatalf("TA prior k=5 (%f) should be below k=all (%f)", shallow, deep)
	}
}

// TestCalibrationFlipsDecision seeds a bucket where observations say the
// prior badly overestimates Merge and underestimates TA, and checks the
// decision flips accordingly.
func TestCalibrationFlipsDecision(t *testing.T) {
	p := New()
	f := feat()
	d0 := p.Plan(f)
	// Whatever the uncalibrated pick is, teach the model the opposite:
	// the picked method is 100x its prior, the runner-up 0.01x.
	for i := 0; i < 8; i++ {
		p.Observe(d0.Method, f, 100*Prior(d0.Method, f))
		p.Observe(d0.RunnerUp, f, 0.01*Prior(d0.RunnerUp, f))
	}
	d1 := p.Plan(f)
	if d1.Method == d0.Method {
		t.Fatalf("decision did not flip after contrary observations (still %v)", d1.Method)
	}
	if d1.Method != d0.RunnerUp {
		t.Fatalf("decision flipped to %v, want former runner-up %v", d1.Method, d0.RunnerUp)
	}
	if got := d1.Candidates[d1.Method].Samples; got == 0 {
		t.Fatalf("calibrated candidate reports 0 samples")
	}
}

// TestBucketsIsolate checks queries in different volume bands do not
// share calibration.
func TestBucketsIsolate(t *testing.T) {
	p := New()
	small := feat()
	big := feat()
	big.RPLEntries *= 1000
	p.Observe(TA, small, 50*Prior(TA, small))
	ratio, samples := p.ratio(TA, big)
	if ratio != 1 || samples != 0 {
		t.Fatalf("big-volume bucket contaminated: ratio=%f samples=%d", ratio, samples)
	}
	ratio, samples = p.ratio(TA, small)
	if samples != 1 || ratio == 1 {
		t.Fatalf("small-volume bucket not calibrated: ratio=%f samples=%d", ratio, samples)
	}
}

func TestStatusAccessors(t *testing.T) {
	p := New()
	if p.Observations() != 0 || p.CalibratedBuckets() != 0 {
		t.Fatalf("fresh planner not empty")
	}
	if !p.LastObservation().IsZero() {
		t.Fatalf("fresh planner has a last-observation time")
	}
	if p.Staleness(time.Now()) < time.Hour {
		t.Fatalf("fresh planner should be maximally stale")
	}
	p.Observe(ERA, feat(), 1000)
	if p.Observations() != 1 || p.CalibratedBuckets() != 1 {
		t.Fatalf("counters after one observation: obs=%d buckets=%d",
			p.Observations(), p.CalibratedBuckets())
	}
	if p.Staleness(time.Now()) > time.Minute {
		t.Fatalf("staleness too large right after an observation")
	}
}

func TestPlanIsPure(t *testing.T) {
	p := New()
	f := feat()
	p.Observe(TA, f, 123)
	before := p.Observations()
	for i := 0; i < 100; i++ {
		p.Plan(f)
	}
	if p.Observations() != before || p.CalibratedBuckets() != 1 {
		t.Fatalf("Plan mutated model state")
	}
}

// TestConcurrentPlanObserve exercises the lock paths under the race
// detector.
func TestConcurrentPlanObserve(t *testing.T) {
	p := New()
	f := feat()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Observe(Method(i%int(NumMethods)), f, float64(100+i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = p.Plan(f)
			}
		}()
	}
	wg.Wait()
	if p.Observations() != 4*500 {
		t.Fatalf("lost observations: %d", p.Observations())
	}
}

// TestColdStartRule pins the rule that resolves MethodAuto before the
// model has samples: TA at 0 < k <= 10 when the RPLs cover the query,
// else Merge when the ERPLs do, else TA, else ERA. RunnerUp is the
// cost-ranked best other candidate (-1 when ERA is the only one). With
// feat()'s volumes the priors rank TA < NRA < Merge < ERA at small k and
// Merge < NRA < TA < ERA when TA must read its lists to the end.
func TestColdStartRule(t *testing.T) {
	const none Method = -1
	type want struct{ method, runnerUp Method }
	cases := []struct {
		rpl, erpl bool
		byK       map[int]want
	}{
		{false, false, map[int]want{0: {ERA, none}, 1: {ERA, none}, 10: {ERA, none}, 11: {ERA, none}, 1000: {ERA, none}}},
		{true, false, map[int]want{0: {TA, NRA}, 1: {TA, NRA}, 10: {TA, NRA}, 11: {TA, NRA}, 1000: {TA, NRA}}},
		{false, true, map[int]want{0: {Merge, ERA}, 1: {Merge, ERA}, 10: {Merge, ERA}, 11: {Merge, ERA}, 1000: {Merge, ERA}}},
		{true, true, map[int]want{0: {Merge, NRA}, 1: {TA, NRA}, 10: {TA, NRA}, 11: {Merge, TA}, 1000: {Merge, NRA}}},
	}
	p := New()
	for _, c := range cases {
		for _, k := range []int{0, 1, 10, 11, 1000} {
			f := feat()
			f.RPLCovered, f.ERPLCovered, f.K = c.rpl, c.erpl, k
			d := p.Plan(f)
			w := c.byK[k]
			if d.Method != w.method || d.RunnerUp != w.runnerUp || !d.ColdStart {
				t.Errorf("rpl=%v erpl=%v k=%d: got (%v, runner-up %v, cold %v), want (%v, %v, true)",
					c.rpl, c.erpl, k, d.Method, d.RunnerUp, d.ColdStart, w.method, w.runnerUp)
			}
		}
	}
}
