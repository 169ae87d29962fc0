package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// id of the span that caused it (-1 for a request root); spans of one
// request share Req. Replayed marks a child whose duration was measured
// by calling the layer again right after its parent finished (the
// program has no spans of its own yet) and that was then laid out inside
// the parent's interval.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"startNs"`
	EndNS    int64  `json:"endNs"`
	Replayed bool   `json:"replayed,omitempty"`
}

// recorder keeps spans in memory and writes them when the run ends. A
// nil recorder records nothing, so untraced runs pay one nil check.
// The mutex is for the serve loop's clients and the writer beside them.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	nextReq int
	// clamped counts replayed children that had to be shortened because
	// the replay ran longer than the parent had left.
	clamped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newRequest allocates a request id.
func (r *recorder) newRequest() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextReq++
	return r.nextReq
}

// begin opens a real (measured in place) span and returns its id.
func (r *recorder) begin(layer, name string, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, StartNS: r.now()})
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.EndNS = r.now()
	return time.Duration(s.EndNS - s.StartNS)
}

// placeChild lays a replayed child of duration d inside parent, after
// the parent's existing children, clamped to the room that is left.
func (r *recorder) placeChild(layer, name string, parent int, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	start := p.StartNS
	for i := parent + 1; i < len(r.spans); i++ {
		if r.spans[i].Parent == parent && r.spans[i].EndNS > start {
			start = r.spans[i].EndNS
		}
	}
	end := start + int64(d)
	if end > p.EndNS {
		end = p.EndNS
		r.clamped++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: p.Req, Name: name, Layer: layer,
		StartNS: start, EndNS: end, Replayed: true})
	return id
}

// selfTimes returns, per layer, every span's duration minus the part of
// it its children cover.
func (r *recorder) selfTimes() map[string][]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range r.spans {
		out[s.Layer] = append(out[s.Layer], time.Duration(s.EndNS-s.StartNS-child[i]))
	}
	return out
}

// checkNesting verifies the invariants the traced run promises: every
// span closed, every child inside its parent and in the same request,
// and the children of one parent never summing past it.
func (r *recorder) checkNesting() error {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("trace: span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("trace: span %d (%s) names a later parent %d", s.ID, s.Name, s.Parent)
		}
		p := r.spans[s.Parent]
		if s.Req != p.Req {
			return fmt.Errorf("trace: span %d (%s) is in request %d, its parent in %d", s.ID, s.Name, s.Req, p.Req)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("trace: span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		child[s.Parent] += s.EndNS - s.StartNS
	}
	for i, s := range r.spans {
		if child[i] > s.EndNS-s.StartNS {
			return fmt.Errorf("trace: children of span %d (%s) exceed it", s.ID, s.Name)
		}
	}
	return nil
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
