package autopilot

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"trex/internal/selfmanage"
)

// Config tunes the controller loop.
type Config struct {
	// Interval is the timer period between planning runs (default 30s).
	Interval time.Duration
	// DriftQueries triggers an early run once this many queries have been
	// observed since the last run (0 = timer only). Drift kicks are
	// best-effort: at most one is pending at a time.
	DriftQueries int
	// TopQueries bounds the workload snapshot handed to RunFunc
	// (default 16).
	TopQueries int
	// MinQueries is the minimum lifetime observation count before the
	// first run fires (default 1); runs are also skipped while the
	// tracker is empty.
	MinQueries int
	// Decay is the multiplicative tracker decay applied after each
	// successful run (default 0.5; 1 disables decay).
	Decay float64
}

func (c *Config) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.TopQueries <= 0 {
		c.TopQueries = 16
	}
	if c.MinQueries <= 0 {
		c.MinQueries = 1
	}
	if c.Decay <= 0 {
		c.Decay = 0.5
	}
}

// RunReport is what one planning run decided and applied.
type RunReport struct {
	// Workload is the snapshot the run planned for.
	Workload []TrackedQuery
	// Kept and Dropped are the physical list keys retained and reclaimed.
	Kept    []string
	Dropped []string
	// DiskUsed is the plan's footprint; DiskBudget the limit it honored.
	DiskUsed   int64
	DiskBudget int64
	// Saving is the plan's weighted time saving over the ERA baseline.
	Saving float64
	// Routed maps each measured query to the retrieval method the query
	// planner predicts under RPL-only and ERPL-only coverage — the costs
	// the solver's saving terms were built from.
	Routed map[string]selfmanage.Routing
}

// RunFunc measures a workload snapshot, solves for the list set under
// the disk budget, and applies the delta. The engine supplies it; it must
// be safe to call while queries are being served.
type RunFunc func(ctx context.Context, workload []TrackedQuery) (*RunReport, error)

// Status is a point-in-time controller snapshot.
type Status struct {
	Runs         uint64
	Failures     uint64
	LastError    string
	LastRunStart time.Time
	LastRunEnd   time.Time
	LastReport   *RunReport
	// TrackedQueries / TotalObserved / SinceLastRun mirror the tracker.
	TrackedQueries int
	TotalObserved  uint64
	SinceLastRun   uint64
}

// Controller owns the re-planning loop: it wakes on a timer or a drift
// kick, snapshots the tracker, and invokes the RunFunc. One run executes
// at a time (the loop and RunNow serialize on runMu).
type Controller struct {
	cfg     Config
	tracker *Tracker
	run     RunFunc

	kick    chan struct{}
	done    chan struct{}
	started atomic.Bool

	sinceRun atomic.Uint64

	runMu sync.Mutex // serializes planning runs

	mu         sync.Mutex // guards the status fields below
	runs       uint64
	failures   uint64
	lastErr    string
	lastStart  time.Time
	lastEnd    time.Time
	lastReport *RunReport
}

// New creates a controller over the tracker; Start launches its loop.
func New(cfg Config, tracker *Tracker, run RunFunc) *Controller {
	cfg.setDefaults()
	return &Controller{
		cfg:     cfg,
		tracker: tracker,
		run:     run,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// Tracker exposes the underlying workload tracker.
func (c *Controller) Tracker() *Tracker { return c.tracker }

// Observe feeds one served query into the tracker and, when enough
// queries have accumulated since the last run, kicks the loop awake
// early. It is cheap (one mutex, one atomic) and safe from any number of
// query goroutines.
func (c *Controller) Observe(nexi string, k int) {
	c.tracker.Observe(nexi, k)
	n := c.sinceRun.Add(1)
	if c.cfg.DriftQueries > 0 && n >= uint64(c.cfg.DriftQueries) {
		c.Kick()
	}
}

// Kick requests an immediate planning run (non-blocking; coalesces).
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Start launches the controller loop; it exits when ctx is cancelled.
// Calling Start more than once is a no-op.
func (c *Controller) Start(ctx context.Context) {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go c.loop(ctx)
}

func (c *Controller) loop(ctx context.Context) {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-c.kick:
		}
		if ctx.Err() != nil {
			return
		}
		_, _ = c.RunNow(ctx)
	}
}

// Wait blocks until a started loop has exited (after its context is
// cancelled). Returns immediately if Start was never called.
func (c *Controller) Wait() {
	if c.started.Load() {
		<-c.done
	}
}

// RunNow executes one planning run synchronously: snapshot, run, record,
// decay. Returns (nil, nil) when the tracker has not yet seen enough
// traffic. Safe to call concurrently with the loop.
func (c *Controller) RunNow(ctx context.Context) (*RunReport, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.tracker.Len() == 0 || c.tracker.Total() < uint64(c.cfg.MinQueries) {
		return nil, nil
	}
	workload := c.tracker.Snapshot(c.cfg.TopQueries)
	start := time.Now()
	report, err := c.run(ctx, workload)
	end := time.Now()

	c.sinceRun.Store(0)
	if err != nil {
		// A cancelled run is shutdown, not failure.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			c.mu.Lock()
			c.failures++
			c.lastErr = err.Error()
			c.mu.Unlock()
		}
		return nil, err
	}
	c.mu.Lock()
	c.runs++
	c.lastErr = ""
	c.lastStart, c.lastEnd = start, end
	c.lastReport = report
	c.mu.Unlock()
	c.tracker.Decay(c.cfg.Decay)
	return report, nil
}

// Status returns a consistent snapshot of the controller's counters and
// last run.
func (c *Controller) Status() Status {
	c.mu.Lock()
	st := Status{
		Runs:         c.runs,
		Failures:     c.failures,
		LastError:    c.lastErr,
		LastRunStart: c.lastStart,
		LastRunEnd:   c.lastEnd,
		LastReport:   c.lastReport,
	}
	c.mu.Unlock()
	st.TrackedQueries = c.tracker.Len()
	st.TotalObserved = c.tracker.Total()
	st.SinceLastRun = c.sinceRun.Load()
	return st
}
