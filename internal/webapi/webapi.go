// Package webapi exposes a TReX engine over HTTP with a small JSON API —
// the shape of service an XML retrieval system is deployed behind.
//
// Endpoints:
//
//	GET  /search?q=<nexi>&k=10&method=auto|era|ta|nra|merge|race&snippets=1&deadline=50ms&lang=nexi|jsonpath
//	GET  /explain?q=<nexi>&lang=nexi|jsonpath
//	POST /materialize?q=<nexi>&kinds=rpl,erpl
//	POST /ingest      (streaming ingest: one document per body line)
//	GET  /stats
//	GET  /autopilot   (online self-management status: last run, plan, budget)
//	GET  /planner     (query planner status: decisions, shadow sampling, model)
//	GET  /metrics     (Prometheus text exposition of the engine's registry)
//	GET  /slowlog     (recent over-threshold queries with their traces)
//	GET  /            (a minimal HTML search page)
//
// Errors are returned as {"error": "..."} with a 4xx/5xx status.
package webapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trex"
	"trex/internal/frontdoor"
	"trex/internal/index"
	"trex/internal/jsoncorpus"
	"trex/internal/planner"
	"trex/internal/telemetry"
)

// Server wires an engine into an http.Handler.
type Server struct {
	eng *trex.Engine
	mux *http.ServeMux
	// AllowWrites enables the /materialize endpoint (a write operation);
	// off by default so a public read replica cannot be mutated.
	AllowWrites bool
}

// New creates a server over the engine.
func New(eng *trex.Engine, allowWrites bool) *Server {
	s := &Server{eng: eng, AllowWrites: allowWrites}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", s.handleSearch)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("POST /materialize", s.handleMaterialize)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /autopilot", s.handleAutopilot)
	mux.HandleFunc("GET /planner", s.handlePlanner)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /slowlog", s.handleSlowlog)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// SearchHit is one JSON answer row.
type SearchHit struct {
	Rank    int     `json:"rank"`
	Score   float64 `json:"score"`
	Doc     uint32  `json:"doc"`
	Start   uint32  `json:"start"`
	End     uint32  `json:"end"`
	Path    string  `json:"path"`
	Snippet string  `json:"snippet,omitempty"`
}

// SearchResponse is the /search payload.
type SearchResponse struct {
	Query        string  `json:"query"`
	Method       string  `json:"method"`
	K            int     `json:"k"`
	TotalAnswers int     `json:"totalAnswers"`
	ElapsedMS    float64 `json:"elapsedMs"`
	NumSIDs      int     `json:"numSids"`
	NumTerms     int     `json:"numTerms"`
	// PageReads / BytesRead are the retrieval run's storage I/O: pages
	// touched (cache hits + misses) and physical bytes fetched.
	PageReads uint64      `json:"pageReads"`
	BytesRead uint64      `json:"bytesRead"`
	Hits      []SearchHit `json:"hits"`
	// Approximate reports the query's deadline expired mid-retrieval: the
	// hits are the correctly ranked best-effort state at the stop point.
	Approximate bool `json:"approximate,omitempty"`
	// Cached reports the result was served from the engine's result cache.
	Cached bool `json:"cached,omitempty"`
	// PlannedMethod / PredictedCost / PlanCandidates expose the query
	// planner's decision when the query ran with method=auto on a
	// planner-enabled engine (absent for fixed methods, cache hits, or a
	// disabled planner).
	PlannedMethod  string          `json:"plannedMethod,omitempty"`
	PredictedCost  float64         `json:"predictedCost,omitempty"`
	PlanCandidates []PlanCandidate `json:"planCandidates,omitempty"`
	// Trace is the per-query span breakdown (absent when the engine runs
	// with telemetry disabled).
	Trace *telemetry.Trace `json:"trace,omitempty"`
	// Cluster is the scatter-gather accounting when the query was served
	// by a ClusterServer coordinator (absent on single-engine servers).
	Cluster *ClusterQueryInfo `json:"cluster,omitempty"`
}

// PlanCandidate is one retrieval method's cost estimate inside a
// planner decision, as exposed by /search and /explain.
type PlanCandidate struct {
	Method   string  `json:"method"`
	Eligible bool    `json:"eligible"`
	Prior    float64 `json:"prior"`
	Ratio    float64 `json:"ratio"`
	Cost     float64 `json:"cost"`
	Samples  uint64  `json:"samples"`
}

// planCandidates flattens a planner decision's candidate table.
func planCandidates(d *planner.Decision) []PlanCandidate {
	out := make([]PlanCandidate, 0, len(d.Candidates))
	for _, c := range d.Candidates {
		out = append(out, PlanCandidate{
			Method:   c.Method.String(),
			Eligible: c.Eligible,
			Prior:    c.Prior,
			Ratio:    c.Ratio,
			Cost:     c.Cost,
			Samples:  c.Samples,
		})
	}
	return out
}

// queryParam extracts and translates the q parameter: lang=jsonpath
// rebinds a JSONPath-flavored query onto NEXI (the natural idiom for a
// JSON corpus); lang=nexi (or absent) passes q through.
func queryParam(r *http.Request) (string, error) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return "", fmt.Errorf("missing q parameter")
	}
	switch lang := r.URL.Query().Get("lang"); lang {
	case "", "nexi":
		return q, nil
	case "jsonpath":
		return jsoncorpus.JSONPathToNEXI(q)
	default:
		return "", fmt.Errorf("unknown query language %q (want nexi or jsonpath)", lang)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := queryParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
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
	res, err := s.eng.QueryOptsCtx(ctx, q, trex.QueryOptions{K: k, Method: method})
	if err != nil {
		switch {
		case errors.Is(err, frontdoor.ErrShed):
			// The admission queue is full: fail fast and tell the client
			// when to come back rather than letting requests pile up.
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
	}
	if res.Stats != nil {
		resp.PageReads = res.Stats.PageReads
		resp.BytesRead = res.Stats.BytesRead
	}
	resp.Approximate = res.Approximate
	resp.Cached = res.Cached
	resp.Trace = res.Trace
	if res.Plan != nil {
		resp.PlannedMethod = res.Plan.Method.String()
		resp.PredictedCost = res.Plan.Cost
		resp.PlanCandidates = planCandidates(res.Plan)
	}
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
			if snip, err := s.eng.Snippet(a, terms, 160); err == nil {
				hit.Snippet = snip
			}
		}
		resp.Hits = append(resp.Hits, hit)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := queryParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ex, err := s.eng.Explain(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := map[string]any{
		"query":          ex.Query,
		"numSids":        ex.NumSIDs,
		"numTerms":       ex.NumTerms,
		"clauses":        ex.Clauses,
		"targetPaths":    ex.TargetPaths,
		"rplCovered":     ex.RPLCovered,
		"erplCovered":    ex.ERPLCovered,
		"methodAtSmallK": ex.MethodAtSmallK.String(),
		"methodAtLargeK": ex.MethodAtLargeK.String(),
		"listVolume":     ex.ListVolume,
		"listBytes":      ex.ListBytes,
	}
	if ex.Plan != nil {
		out["plannedMethod"] = ex.Plan.Method.String()
		out["predictedCost"] = ex.Plan.Cost
		out["planColdStart"] = ex.Plan.ColdStart
		out["planCandidates"] = planCandidates(ex.Plan)
	}
	if ex.PlanFeatures != nil {
		out["planFeatures"] = ex.PlanFeatures
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
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
	ms, err := s.eng.Materialize(q, kinds...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rplEntries":  ms.RPLEntries,
		"erplEntries": ms.ERPLEntries,
		"rplBytes":    ms.RPLBytes,
		"erplBytes":   ms.ERPLBytes,
	})
}

// handleIngest streams documents into the engine: the request body is
// one document per line, in the engine's corpus format (JSON objects
// for a JSON corpus, single-line XML for an XML corpus). All lines are
// staged first — a malformed document rejects the whole request with
// nothing written — then committed as one batch. Gated by AllowWrites
// like every other mutation.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.AllowWrites {
		writeErr(w, http.StatusForbidden, fmt.Errorf("writes disabled on this server"))
		return
	}
	ing := s.eng.NewIngestor()
	defer ing.Abort()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxIngestLine)
	line := 0
	for sc.Scan() {
		line++
		doc := bytes.TrimSpace(sc.Bytes())
		if len(doc) == 0 {
			continue
		}
		if err := ing.Add(doc); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("line %d: %w", line, err))
			return
		}
	}
	if err := sc.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	st, err := ing.Commit()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"docs":               st.Docs,
		"elements":           st.Elements,
		"postings":           st.Postings,
		"newSids":            st.NewSIDs,
		"droppedListEntries": st.DroppedListEntries,
	})
}

// maxIngestLine bounds one ingested document (16 MiB).
const maxIngestLine = 16 << 20

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs, err := s.eng.Store().CollectionStats()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"numDocs":       cs.NumDocs,
		"numElements":   cs.NumElements,
		"avgElementLen": cs.AvgElementLen,
		"summaryNodes":  s.eng.Summary().NumNodes(),
		"pages":         s.eng.DB().PageCount(),
	})
}

// handleMetrics serves the engine's metric registry in the Prometheus
// text exposition format (version 0.0.4). 404 when the engine was
// opened with telemetry disabled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.eng.MetricsRegistry()
	if reg == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry disabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}

// handleSlowlog serves the slow-query ring buffer, newest first, with
// each entry's trace. The optional threshold query parameter (a Go
// duration, e.g. 100ms) retunes the budget at runtime.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	log := s.eng.SlowLog()
	if log == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry disabled"))
		return
	}
	if ts := r.URL.Query().Get("threshold"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q: %v", ts, err))
			return
		}
		log.SetThreshold(d)
	}
	entries := log.Entries()
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold": log.Threshold().String(),
		"capacity":  log.Capacity(),
		"total":     log.Total(),
		"entries":   entries,
	})
}

// handleAutopilot reports the online self-management daemon's state:
// run counters, the last applied plan (kept/dropped lists, bytes vs.
// budget), and the workload tracker's counters. enabled=false when the
// server runs without the autopilot.
func (s *Server) handleAutopilot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.AutopilotStatus())
}

// handlePlanner reports the query planner's state: per-method decision
// counts, shadow-sampling counters (samples, errors, mispredictions),
// and model calibration (observations, buckets, staleness).
func (s *Server) handlePlanner(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.PlannerStatus())
}

const indexHTML = `<!doctype html>
<meta charset="utf-8">
<title>TReX search</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 52rem; }
 input[type=text] { width: 36rem; } pre { background: #f4f4f4; padding: .5rem; }
 .hit { margin: .75rem 0; } .path { color: #667; } .score { color: #286; }
</style>
<h1>TReX</h1>
<form onsubmit="run(event)">
 <input id="q" type="text" placeholder="//article[about(., xml)]//sec[about(., retrieval)]">
 k <input id="k" type="number" value="10" style="width:4rem">
 <select id="m"><option>auto</option><option>era</option><option>ta</option>
 <option>nra</option><option>merge</option></select>
 <button>search</button>
</form>
<div id="out"></div>
<script>
async function run(ev) {
  ev.preventDefault();
  const q = document.getElementById('q').value;
  const k = document.getElementById('k').value;
  const m = document.getElementById('m').value;
  const r = await fetch('/search?snippets=1&q=' + encodeURIComponent(q) + '&k=' + k + '&method=' + m);
  const data = await r.json();
  const out = document.getElementById('out');
  if (data.error) { out.textContent = data.error; return; }
  out.innerHTML = '<p>' + data.totalAnswers + ' answers via <b>' + data.method +
    '</b> in ' + data.elapsedMs + ' ms</p>' +
    (data.hits || []).map(h =>
      '<div class="hit"><span class="score">' + h.score.toFixed(3) + '</span> ' +
      '<span class="path">doc ' + h.doc + ' ' + h.path + '</span><br>' +
      (h.snippet || '')  + '</div>').join('');
}
</script>`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
