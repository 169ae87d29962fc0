package webapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trex"
	"trex/internal/cluster"
	"trex/internal/frontdoor"
	"trex/internal/index"
)

// ClusterServer wires a sharded cluster coordinator into an
// http.Handler with the same JSON API shape as the single-engine
// Server, plus the distributed accounting.
//
// Endpoints:
//
//	GET  /search?q=<nexi>&k=10&method=...&snippets=1&deadline=50ms
//	GET  /cluster     (topology: per-replica liveness and epochs)
//	GET  /stats
//	GET  /metrics     (coordinator registry; ?shard=N[&replica=R] for one engine's)
//	POST /materialize?q=<nexi>&kinds=rpl,erpl   (fanned out to every replica)
//	GET  /            (the same minimal HTML search page)
type ClusterServer struct {
	cl  *cluster.Cluster
	mux *http.ServeMux
	// AllowWrites enables the /materialize endpoint (a replicated write);
	// off by default so a public coordinator cannot be mutated.
	AllowWrites bool
}

// NewCluster creates a server over the cluster coordinator.
func NewCluster(cl *cluster.Cluster, allowWrites bool) *ClusterServer {
	s := &ClusterServer{cl: cl, AllowWrites: allowWrites}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", s.handleSearch)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /materialize", s.handleMaterialize)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *ClusterServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ClusterQueryInfo is the distributed accounting attached to a
// coordinator-served /search response.
type ClusterQueryInfo struct {
	Shards     int              `json:"shards"`
	Rounds     int              `json:"rounds"`
	Fetches    int              `json:"fetches"`
	EarlyStops int              `json:"earlyStops"`
	Failovers  int              `json:"failovers"`
	PerShard   []ShardQueryInfo `json:"perShard,omitempty"`
}

// ShardQueryInfo is one shard's slice of a query's scatter-gather.
type ShardQueryInfo struct {
	Shard     int    `json:"shard"`
	Replica   int    `json:"replica"`
	Fetches   int    `json:"fetches"`
	Answers   int    `json:"answers"`
	PageReads uint64 `json:"pageReads"`
	EarlyStop bool   `json:"earlyStop,omitempty"`
	Exhausted bool   `json:"exhausted,omitempty"`
}

func clusterInfo(cs cluster.ClusterStats) *ClusterQueryInfo {
	info := &ClusterQueryInfo{
		Shards:     cs.Shards,
		Rounds:     cs.Rounds,
		Fetches:    cs.Fetches,
		EarlyStops: cs.EarlyStops,
		Failovers:  cs.Failovers,
	}
	for i, ps := range cs.PerShard {
		info.PerShard = append(info.PerShard, ShardQueryInfo{
			Shard:     i,
			Replica:   ps.Replica,
			Fetches:   ps.Fetches,
			Answers:   ps.Answers,
			PageReads: ps.PageReads,
			EarlyStop: ps.EarlyStop,
			Exhausted: ps.Exhausted,
		})
	}
	return info
}

func (s *ClusterServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	k := trex.DefaultK
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
			return
		}
		k = v
	}
	method, err := trex.ParseMethod(r.URL.Query().Get("method"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if ds := r.URL.Query().Get("deadline"); ds != "" {
		d, err := time.ParseDuration(ds)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad deadline %q", ds))
			return
		}
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	res, err := s.cl.QueryOptsCtx(ctx, q, trex.QueryOptions{K: k, Method: method})
	if err != nil {
		switch {
		case errors.Is(err, frontdoor.ErrShed):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, frontdoor.ErrQueueTimeout):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	resp := SearchResponse{
		Query:        q,
		Method:       res.Method.String(),
		K:            k,
		TotalAnswers: res.TotalAnswers,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
		NumSIDs:      res.Translation.NumSIDs(),
		NumTerms:     res.Translation.NumTerms(),
		Cluster:      clusterInfo(res.Cluster),
	}
	if res.Stats != nil {
		resp.PageReads = res.Stats.PageReads
		resp.BytesRead = res.Stats.BytesRead
	}
	resp.Approximate = res.Approximate
	resp.Cached = res.Cached
	wantSnippets := r.URL.Query().Get("snippets") == "1"
	terms := res.Translation.DistinctTerms()
	for i, a := range res.Answers {
		hit := SearchHit{
			Rank:  i + 1,
			Score: a.Score,
			Doc:   a.Doc,
			Start: a.Start,
			End:   a.End,
			Path:  a.Path,
		}
		if wantSnippets {
			if snip, err := s.cl.Snippet(a, terms, 160); err == nil {
				hit.Snippet = snip
			}
		}
		resp.Hits = append(resp.Hits, hit)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCluster reports the serving topology: per-replica liveness and
// applied epochs against each shard's write epoch, so lag and dead
// replicas are visible at a glance.
func (s *ClusterServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	type replicaStatus struct {
		Replica int    `json:"replica"`
		Up      bool   `json:"up"`
		Epoch   uint64 `json:"epoch"`
	}
	type shardStatus struct {
		Shard    int             `json:"shard"`
		Epoch    uint64          `json:"epoch"`
		Replicas []replicaStatus `json:"replicas"`
	}
	shards := make([]shardStatus, s.cl.Shards())
	for si := range shards {
		st := shardStatus{Shard: si, Epoch: s.cl.ShardEpoch(si)}
		for ri := 0; ri < s.cl.Replicas(); ri++ {
			st.Replicas = append(st.Replicas, replicaStatus{
				Replica: ri,
				Up:      s.cl.ReplicaUp(si, ri),
				Epoch:   s.cl.ReplicaEpoch(si, ri),
			})
		}
		shards[si] = st
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":   s.cl.Shards(),
		"replicas": s.cl.Replicas(),
		"epoch":    s.cl.Epoch(),
		"topology": shards,
	})
}

// liveEngine returns any live replica engine (global statistics are
// synced to every replica, so all of them agree on collection-wide
// numbers).
func (s *ClusterServer) liveEngine() *trex.Engine {
	for si := 0; si < s.cl.Shards(); si++ {
		for ri := 0; ri < s.cl.Replicas(); ri++ {
			if s.cl.ReplicaUp(si, ri) {
				return s.cl.Engine(si, ri)
			}
		}
	}
	return nil
}

func (s *ClusterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	eng := s.liveEngine()
	if eng == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no live replicas"))
		return
	}
	cs, err := eng.Store().CollectionStats()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"numDocs":       cs.NumDocs,
		"numElements":   cs.NumElements,
		"avgElementLen": cs.AvgElementLen,
		"summaryNodes":  eng.Summary().NumNodes(),
		"shards":        s.cl.Shards(),
		"replicas":      s.cl.Replicas(),
		"epoch":         s.cl.Epoch(),
	})
}

// handleMetrics serves the coordinator's trex_cluster_* registry, or —
// with ?shard=N[&replica=R] — one replica engine's registry, in the
// Prometheus text exposition format.
func (s *ClusterServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if ss := r.URL.Query().Get("shard"); ss != "" {
		si, err := strconv.Atoi(ss)
		if err != nil || si < 0 || si >= s.cl.Shards() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", ss))
			return
		}
		ri := 0
		if rs := r.URL.Query().Get("replica"); rs != "" {
			ri, err = strconv.Atoi(rs)
			if err != nil || ri < 0 || ri >= s.cl.Replicas() {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad replica %q", rs))
				return
			}
		}
		reg := s.cl.Engine(si, ri).MetricsRegistry()
		if reg == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry disabled on shard %d replica %d", si, ri))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = reg.WritePrometheus(w)
		return
	}
	reg := s.cl.MetricsRegistry()
	if reg == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("cluster metrics disabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}

// handleMaterialize fans the materialization out through the sequenced
// apply channel so every replica commits the same lists at the same
// epoch.
func (s *ClusterServer) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	if !s.AllowWrites {
		writeErr(w, http.StatusForbidden, fmt.Errorf("writes disabled on this server"))
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	kinds := []index.ListKind{index.KindRPL, index.KindERPL}
	if ks := r.URL.Query().Get("kinds"); ks != "" {
		kinds = nil
		for _, part := range strings.Split(ks, ",") {
			switch strings.TrimSpace(part) {
			case "rpl":
				kinds = append(kinds, index.KindRPL)
			case "erpl":
				kinds = append(kinds, index.KindERPL)
			default:
				writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown kind %q", part))
				return
			}
		}
	}
	if err := s.cl.Materialize(q, kinds...); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": s.cl.Epoch()})
}

func (s *ClusterServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
