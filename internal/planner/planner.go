// Package planner implements TReX's online query planner: an
// always-calibrating cost model that predicts which retrieval strategy
// (ERA, TA, NRA, Merge) evaluates a query cheapest, from features that
// are free to compute at plan time — the translated query's shape
// (#sids, #terms, k) plus exact list sizes from the materialization
// catalog.
//
// The model needs no offline training. Each candidate method has an
// analytic cost prior (a monotone function of the volume that method
// would read), and a table of per-feature-bucket correction ratios
// learned from observed runs: after every exactly-measured retrieval the
// engine calls Observe with the run's deterministic cost proxy, and the
// bucket's ratio (observed / prior) moves toward it. Prediction is
// prior x learned-ratio, so the planner adapts to the collection, the
// storage backend and materialization changes without ever being
// retrained — a freshly materialized RPL simply starts collecting
// samples in its own volume buckets.
//
// The package is deliberately dependency-free (stdlib only) so both the
// engine and the differential oracle can use it.
package planner

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Method enumerates the candidate retrieval strategies, in the fixed
// order candidates are scanned (ties prefer the earlier method).
type Method int

const (
	// ERA is the exhaustive algorithm over the base index — always
	// eligible.
	ERA Method = iota
	// Merge is the positional merge over ERPLs.
	Merge
	// TA is the threshold algorithm over score-ordered RPLs.
	TA
	// NRA is the sorted-access-only threshold variant over RPLs.
	NRA
	// NumMethods is the number of candidate methods.
	NumMethods
)

func (m Method) String() string {
	switch m {
	case ERA:
		return "era"
	case TA:
		return "ta"
	case NRA:
		return "nra"
	case Merge:
		return "merge"
	default:
		return "unknown"
	}
}

// Features is a query's plan-time feature vector. Volumes are exact
// catalog numbers (entries/bytes/blocks summed over the query's
// (term, sid) lists); none of them require opening a cursor.
type Features struct {
	// NumSIDs/NumTerms/K come from the translated query. K is the
	// retrieval-phase k (kEval): 0 means "all answers".
	NumSIDs  int
	NumTerms int
	K        int
	// RPLCovered/ERPLCovered report full catalog coverage of the
	// query's (term, sid) pairs — the eligibility gates for TA/NRA and
	// Merge respectively.
	RPLCovered  bool
	ERPLCovered bool
	// RPLEntries/RPLBytes/RPLBlocks describe the query's RPL volume;
	// the ERPL triple likewise. Blocks is the number of storage rows at
	// the block-encoded target size.
	RPLEntries int64
	RPLBytes   int64
	RPLBlocks  int64

	ERPLEntries int64
	ERPLBytes   int64
	ERPLBlocks  int64
	// PostingsPositions estimates the base-index volume ERA scans: the
	// summed collection frequency of the query terms.
	PostingsPositions int64
}

// Candidate is one method's cost estimate inside a Decision.
type Candidate struct {
	Method   Method
	Eligible bool
	// Prior is the analytic cost estimate; Ratio the learned
	// observed/prior correction for the query's feature bucket (1 when
	// the bucket has no samples); Cost = Prior * Ratio.
	Prior   float64
	Ratio   float64
	Cost    float64
	Samples uint64
}

// Decision is the planner's verdict for one query.
type Decision struct {
	// Method is the predicted-cheapest eligible method; RunnerUp the
	// second-cheapest (ERA when nothing else is eligible, or -1 when
	// ERA itself is the only candidate).
	Method   Method
	RunnerUp Method
	// Cost/RunnerUpCost are the corresponding predicted costs.
	Cost         float64
	RunnerUpCost float64
	// ColdStart reports the pick came from the static preference rule
	// because no eligible candidate had any observed samples yet (see
	// Plan).
	ColdStart bool
	// Candidates holds every method's estimate, indexed by Method, for
	// explain output.
	Candidates [NumMethods]Candidate
}

// cell is one feature bucket's calibration state.
type cell struct {
	ratio   float64
	samples uint64
}

// Planner is the shared, concurrency-safe model. The zero value is not
// usable; construct with New.
type Planner struct {
	mu    sync.RWMutex
	cells map[uint32]cell

	observations atomic.Uint64
	// lastObserve is the wall-clock time of the latest Observe in unix
	// nanoseconds (0 = never) — the staleness gauge's input.
	lastObserve atomic.Int64
}

// New returns an uncalibrated planner (every ratio 1).
func New() *Planner {
	return &Planner{cells: make(map[uint32]cell)}
}

// ewmaAlpha is the steady-state weight of a new sample. Until a bucket
// has seen 1/ewmaAlpha samples it averages them outright, so the first
// few observations move the ratio quickly.
const ewmaAlpha = 0.25

// Eligible reports whether the method's required lists are covered.
func Eligible(m Method, f Features) bool {
	switch m {
	case TA, NRA:
		return f.RPLCovered
	case Merge:
		return f.ERPLCovered
	case ERA:
		return true
	default:
		return false
	}
}

// taDepth estimates how many RPL entries per run TA consumes under
// sorted access before its threshold test stops it: a k-proportional
// band per term list, capped at the full volume. With k <= 0 (all
// answers) the lists are read to the end.
func taDepth(f Features) float64 {
	e := float64(f.RPLEntries)
	if f.K <= 0 {
		return e
	}
	t := float64(f.NumTerms)
	if t < 1 {
		t = 1
	}
	d := (32 + 6*float64(f.K)) * t
	if d > e {
		d = e
	}
	return d
}

// Prior is the analytic cost estimate for the method, in the engine's
// deterministic cost-proxy units (reads + weighted random accesses,
// heap operations and sort). It only needs to be a monotone,
// volume-proportional shape — the per-bucket ratio absorbs constant
// factors.
func Prior(m Method, f Features) float64 {
	const base = 16 // floor so ratios stay finite on empty lists
	switch m {
	case ERA:
		// ERA scans postings positions and visits the elements they
		// land in, then sorts.
		return 3*float64(f.PostingsPositions) + base
	case TA:
		// Sorted accesses down to the stop depth, with random-access
		// probes (weight 8, as in retrieval.Stats.CostProxy, where the
		// measured ratio of 11-17 sorted reads per one-shot probe is
		// recorded) amortized over the frontier and heap maintenance
		// on top.
		return 6*taDepth(f) + base
	case NRA:
		// No random accesses, but a deeper stop (bounds converge more
		// slowly than exact scores) and per-candidate bookkeeping.
		d := 2 * taDepth(f)
		if e := float64(f.RPLEntries); d > e {
			d = e
		}
		return 4*d + base
	case Merge:
		// A full positional sweep of the ERPLs plus the final sort.
		return 3*float64(f.ERPLEntries) + base
	default:
		return math.Inf(1)
	}
}

// bucketKey packs (method, volume band, #terms band, #sids band, k
// band) into one map key. The volume band is the bit length of the
// method's own read volume, so calibration ratios are shared only
// across queries within a factor-2 volume range with the same shape.
func bucketKey(m Method, f Features) uint32 {
	var vol int64
	switch m {
	case ERA:
		vol = f.PostingsPositions
	case Merge:
		vol = f.ERPLEntries
	default:
		vol = f.RPLEntries
	}
	if vol < 0 {
		vol = 0
	}
	vb := uint32(bits.Len64(uint64(vol))) // 0..64
	tb := bandOf(f.NumTerms)
	sb := bandOf(f.NumSIDs)
	kb := kBand(f.K)
	return uint32(m)<<24 | vb<<16 | tb<<8 | sb<<4 | kb
}

// bandOf buckets small counts exactly and saturates at 7.
func bandOf(n int) uint32 {
	if n < 0 {
		n = 0
	}
	if n > 7 {
		n = 7
	}
	return uint32(n)
}

// kBand buckets k into the regimes the paper's figures distinguish:
// all-answers, tiny k, small k, medium, large.
func kBand(k int) uint32 {
	switch {
	case k <= 0:
		return 0
	case k <= 1:
		return 1
	case k <= 10:
		return 2
	case k <= 100:
		return 3
	default:
		return 4
	}
}

// ratio returns the bucket's learned correction and sample count.
func (p *Planner) ratio(m Method, f Features) (float64, uint64) {
	p.mu.RLock()
	c, ok := p.cells[bucketKey(m, f)]
	p.mu.RUnlock()
	if !ok || c.samples == 0 {
		return 1, 0
	}
	return c.ratio, c.samples
}

// coldStartK is the k at or below which the cold-start rule prefers TA
// over Merge — the paper's figures show TA winning only at small k.
const coldStartK = 10

// coldPick is the static preference rule used before the model has any
// samples for a query's eligible candidates: prefer the redundant lists
// over the exhaustive scan, TA at small k, Merge otherwise. It is the
// only rule that resolves MethodAuto on an uncalibrated engine.
func coldPick(f Features) Method {
	switch {
	case f.RPLCovered && f.K > 0 && f.K <= coldStartK:
		return TA
	case f.ERPLCovered:
		return Merge
	case f.RPLCovered:
		return TA
	default:
		return ERA
	}
}

// Plan predicts the cheapest eligible method. It is a pure read of the
// model — no counters move, so Explain can call it without skewing
// planner metrics. The candidate scan order (ERA, Merge, TA, NRA)
// breaks exact cost ties deterministically in favor of the earlier
// method. While every eligible candidate is still sample-free the pick
// comes from the static cold-start rule instead of the uncalibrated
// priors (the analytic shapes cannot rank methods reliably on very
// small lists, where sorted-access depth saturates); a single observed
// sample flips the query's bucket to cost ranking.
func (p *Planner) Plan(f Features) Decision {
	d := Decision{Method: -1, RunnerUp: -1}
	var samples uint64
	for m := Method(0); m < NumMethods; m++ {
		c := Candidate{Method: m, Eligible: Eligible(m, f)}
		if c.Eligible {
			c.Prior = Prior(m, f)
			c.Ratio, c.Samples = p.ratio(m, f)
			c.Cost = c.Prior * c.Ratio
			samples += c.Samples
			switch {
			case d.Method < 0 || c.Cost < d.Cost:
				d.RunnerUp, d.RunnerUpCost = d.Method, d.Cost
				d.Method, d.Cost = m, c.Cost
			case d.RunnerUp < 0 || c.Cost < d.RunnerUpCost:
				d.RunnerUp, d.RunnerUpCost = m, c.Cost
			}
		}
		d.Candidates[m] = c
	}
	if samples == 0 {
		cold := coldPick(f)
		if cold != d.Method {
			d.RunnerUp, d.RunnerUpCost = d.Method, d.Cost
			d.Method, d.Cost = cold, d.Candidates[cold].Cost
		}
		d.ColdStart = true
	}
	return d
}

// Observe feeds one measured run into the model: cost is the run's
// deterministic cost proxy under method m for a query with features f.
// The matching bucket's ratio moves toward cost/Prior.
func (p *Planner) Observe(m Method, f Features, cost float64) {
	if m < 0 || m >= NumMethods || cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return
	}
	prior := Prior(m, f)
	if prior <= 0 || math.IsInf(prior, 0) {
		return
	}
	sample := cost / prior
	key := bucketKey(m, f)
	p.mu.Lock()
	c := p.cells[key]
	c.samples++
	alpha := ewmaAlpha
	if warm := 1 / float64(c.samples); warm > alpha {
		alpha = warm // plain mean until the bucket warms up
	}
	c.ratio += alpha * (sample - c.ratio)
	p.cells[key] = c
	p.mu.Unlock()
	p.observations.Add(1)
	p.lastObserve.Store(time.Now().UnixNano())
}

// Observations is the total number of Observe calls.
func (p *Planner) Observations() uint64 { return p.observations.Load() }

// CalibratedBuckets is the number of feature buckets with at least one
// sample.
func (p *Planner) CalibratedBuckets() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cells)
}

// Staleness is the time since the last observation; a very large value
// when the model has never observed anything.
func (p *Planner) Staleness(now time.Time) time.Duration {
	last := p.lastObserve.Load()
	if last == 0 {
		return time.Duration(math.MaxInt64)
	}
	return now.Sub(time.Unix(0, last))
}

// LastObservation is the wall-clock time of the latest Observe (zero
// time when none).
func (p *Planner) LastObservation() time.Time {
	last := p.lastObserve.Load()
	if last == 0 {
		return time.Time{}
	}
	return time.Unix(0, last)
}
