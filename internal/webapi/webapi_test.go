package webapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"trex"
	"trex/internal/corpus"
)

func newTestServer(t *testing.T, allowWrites bool) *httptest.Server {
	t.Helper()
	col := corpus.GenerateIEEE(25, 202)
	eng, err := trex.CreateMemory(col, &trex.Options{StoreDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(New(eng, allowWrites))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp.StatusCode
}

const testQuery = `//article//sec[about(., ontologies case study)]`

func TestSearchEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var resp SearchResponse
	code := getJSON(t, ts, "/search?snippets=1&k=5&q="+url.QueryEscape(testQuery), &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Method != "era" {
		t.Fatalf("method = %q (no lists materialized)", resp.Method)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > 5 {
		t.Fatalf("hits = %d", len(resp.Hits))
	}
	for i, h := range resp.Hits {
		if h.Rank != i+1 {
			t.Fatalf("rank[%d] = %d", i, h.Rank)
		}
		if h.Snippet == "" {
			t.Fatalf("hit %d missing snippet", i)
		}
		if !strings.HasSuffix(h.Path, "/sec") {
			t.Fatalf("hit %d path = %q", i, h.Path)
		}
	}
	if resp.NumSIDs == 0 || resp.NumTerms != 3 {
		t.Fatalf("translation = %d sids, %d terms", resp.NumSIDs, resp.NumTerms)
	}
}

func TestSearchErrors(t *testing.T) {
	ts := newTestServer(t, false)
	var e map[string]string
	if code := getJSON(t, ts, "/search", &e); code != http.StatusBadRequest {
		t.Fatalf("missing q status = %d", code)
	}
	if code := getJSON(t, ts, "/search?q="+url.QueryEscape("not nexi"), &e); code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", code)
	}
	if e["error"] == "" {
		t.Fatal("no error message")
	}
	if code := getJSON(t, ts, "/search?k=-1&q="+url.QueryEscape(testQuery), &e); code != http.StatusBadRequest {
		t.Fatalf("bad k status = %d", code)
	}
	for _, m := range []string{"warp", "race"} {
		if code := getJSON(t, ts, "/search?method="+m+"&q="+url.QueryEscape(testQuery), &e); code != http.StatusBadRequest {
			t.Fatalf("method=%s status = %d", m, code)
		}
	}
}

func TestMaterializeEndpointAndMethodSwitch(t *testing.T) {
	ts := newTestServer(t, true)
	resp, err := http.Post(ts.URL+"/materialize?q="+url.QueryEscape(testQuery), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("materialize status = %d: %v", resp.StatusCode, m)
	}
	if m["rplEntries"].(float64) <= 0 {
		t.Fatalf("rplEntries = %v", m["rplEntries"])
	}
	// Auto now picks TA for small k.
	var sr SearchResponse
	getJSON(t, ts, "/search?k=5&q="+url.QueryEscape(testQuery), &sr)
	if sr.Method != "ta" {
		t.Fatalf("method after materialize = %q", sr.Method)
	}
}

func TestMaterializeForbiddenOnReadOnly(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Post(ts.URL+"/materialize?q="+url.QueryEscape(testQuery), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var ex map[string]any
	code := getJSON(t, ts, "/explain?q="+url.QueryEscape(testQuery), &ex)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ex["numTerms"].(float64) != 3 {
		t.Fatalf("numTerms = %v", ex["numTerms"])
	}
	if ex["methodAtSmallK"].(string) != "era" {
		t.Fatalf("methodAtSmallK = %v", ex["methodAtSmallK"])
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var st map[string]any
	code := getJSON(t, ts, "/stats", &st)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st["numDocs"].(float64) != 25 {
		t.Fatalf("numDocs = %v", st["numDocs"])
	}
	if st["summaryNodes"].(float64) <= 0 {
		t.Fatalf("summaryNodes = %v", st["summaryNodes"])
	}
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", resp2.StatusCode)
	}
}

func TestPlannerEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var st map[string]any
	if code := getJSON(t, ts, "/planner", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st["shadowFraction"].(float64) != trex.DefaultShadowFraction {
		t.Fatalf("shadowFraction = %v", st["shadowFraction"])
	}
	if _, ok := st["decisions"].(map[string]any); !ok {
		t.Fatalf("decisions = %T", st["decisions"])
	}

	// An auto query bumps the decision counter for the routed method and
	// calibrates the model with its observed cost.
	var sr SearchResponse
	if code := getJSON(t, ts, "/search?q="+url.QueryEscape(testQuery), &sr); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if code := getJSON(t, ts, "/planner", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	dec := st["decisions"].(map[string]any)
	var total float64
	for _, v := range dec {
		total += v.(float64)
	}
	if total != 1 {
		t.Fatalf("decisions after one auto query = %v", dec)
	}
	if st["observations"].(float64) < 1 {
		t.Fatalf("observations = %v", st["observations"])
	}
}

func TestSearchPlannerFields(t *testing.T) {
	ts := newTestServer(t, false)
	var sr SearchResponse
	if code := getJSON(t, ts, "/search?q="+url.QueryEscape(testQuery), &sr); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if sr.PlannedMethod != sr.Method {
		t.Fatalf("plannedMethod = %q, method = %q", sr.PlannedMethod, sr.Method)
	}
	if sr.PredictedCost <= 0 {
		t.Fatalf("predictedCost = %v", sr.PredictedCost)
	}
	if len(sr.PlanCandidates) != 4 {
		t.Fatalf("planCandidates = %d, want 4", len(sr.PlanCandidates))
	}
	for _, c := range sr.PlanCandidates {
		if c.Method == "" {
			t.Fatalf("candidate missing method: %+v", c)
		}
	}

	// Fixed methods carry no plan.
	var fixed SearchResponse
	if code := getJSON(t, ts, "/search?method=era&q="+url.QueryEscape(testQuery), &fixed); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if fixed.PlannedMethod != "" || fixed.PlanCandidates != nil {
		t.Fatalf("fixed-method response carries plan: %q %v", fixed.PlannedMethod, fixed.PlanCandidates)
	}
}

func TestExplainPlannerFields(t *testing.T) {
	ts := newTestServer(t, false)
	var ex map[string]any
	if code := getJSON(t, ts, "/explain?q="+url.QueryEscape(testQuery), &ex); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ex["plannedMethod"].(string) != "era" {
		t.Fatalf("plannedMethod = %v (nothing materialized)", ex["plannedMethod"])
	}
	if ex["planColdStart"].(bool) != true {
		t.Fatal("fresh engine not flagged cold-start")
	}
	cands, ok := ex["planCandidates"].([]any)
	if !ok || len(cands) != 4 {
		t.Fatalf("planCandidates = %v", ex["planCandidates"])
	}
	feats, ok := ex["planFeatures"].(map[string]any)
	if !ok {
		t.Fatalf("planFeatures = %T", ex["planFeatures"])
	}
	if feats["NumTerms"].(float64) != 3 {
		t.Fatalf("planFeatures.NumTerms = %v", feats["NumTerms"])
	}
}

func TestAutopilotEndpoint(t *testing.T) {
	// Without the daemon the endpoint still answers, flagged disabled.
	ts := newTestServer(t, false)
	var off map[string]any
	if code := getJSON(t, ts, "/autopilot", &off); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if off["enabled"].(bool) {
		t.Fatal("autopilot reported enabled on a plain server")
	}

	// With Options.Autopilot the status reflects live tracker counters.
	col := corpus.GenerateIEEE(10, 303)
	eng, err := trex.CreateMemory(col, &trex.Options{
		StoreDocuments: true,
		Autopilot:      &trex.AutopilotOptions{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts2 := httptest.NewServer(New(eng, false))
	t.Cleanup(ts2.Close)
	var on map[string]any
	if code := getJSON(t, ts2, "/search?q="+url.QueryEscape(testQuery), &on); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if code := getJSON(t, ts2, "/autopilot", &on); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !on["enabled"].(bool) {
		t.Fatal("autopilot reported disabled")
	}
	if on["totalObserved"].(float64) != 1 {
		t.Fatalf("totalObserved = %v, want 1 (the /search call)", on["totalObserved"])
	}
}
