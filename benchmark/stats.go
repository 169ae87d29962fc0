package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-quantile (0..1) of ds by nearest rank on a
// sorted copy; 0 for an empty sample.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// medianF is the median of a float sample (mean of the middle pair for
// even sizes); 0 for an empty sample.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of the positive values in v.
func geomean(v []float64) float64 {
	var sum float64
	n := 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// perRequestMedians groups the latencies by the request they answered and
// returns each distinct request's median, in ms, in request order.
func perRequestMedians(lat []time.Duration, req []int) []float64 {
	groups := make(map[int][]time.Duration)
	for i, d := range lat {
		groups[req[i]] = append(groups[req[i]], d)
	}
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = ms(median(groups[id]))
	}
	return out
}

// quartileSpread is (Q3-Q1)/median with the exclusive-method quartiles
// Python's statistics.quantiles(v, n=4) computes — the spread the
// driver's A/A check applies. It needs two values or more.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s)
		pos := float64(i) * float64(m+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := medianF(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
