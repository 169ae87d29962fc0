package trex

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"trex/internal/selfmanage"
)

// goldenWorkload shares (term, sid) pairs between its queries: the second
// and fourth reuse terms and sids of the first, so a later query's build
// replaces pairs an earlier one wrote, and the fifth reaches lists under
// a wildcard step.
var goldenWorkload = []WorkloadQuery{
	{NEXI: `//article//sec[about(., ontologies case study)]`, Freq: 0.3, K: 10},
	{NEXI: `//article//sec[about(., ontologies)]`, Freq: 0.2, K: 5},
	{NEXI: `//article[about(., xml query evaluation)]`, Freq: 0.2, K: 10},
	{NEXI: `//article//sec[about(., case study retrieval)]`, Freq: 0.2, K: 20},
	{NEXI: `//bdy//*[about(., model checking state space)]`, Freq: 0.1, K: 100},
}

// goldenReport is the part of an AdvisorReport the golden file pins: the
// solver's input (each query's measured costs and list bytes) and every
// decision taken from it.
type goldenReport struct {
	Queries        []selfmanage.QuerySpec
	Plan           *selfmanage.Plan
	KeptLists      []string
	DroppedLists   []string
	DroppedEntries int
	Routed         map[string]selfmanage.Routing
}

// TestAdvisorReportGolden pins the advisor's output for two consecutive
// SelfManage runs on one generated IEEE collection, no other query run on
// the engine: the first with an unlimited budget, the second at half the
// first plan's DiskUsed. The second run starts from the first run's
// lists (RPLs only), so its builds replace committed lists: each term's
// committed RPL is copied into the draft before its sids are rebuilt, and
// the apply deletes the committed rows the plan no longer keeps. A change
// meant to move plans replaces the file with the report the failure
// prints.
func TestAdvisorReportGolden(t *testing.T) {
	eng := testEngine(t, 80, 29)
	full, err := eng.SelfManage(goldenWorkload, 1<<40, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	half, err := eng.SelfManage(goldenWorkload, full.Plan.DiskUsed/2, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenReport
	for _, r := range []*AdvisorReport{full, half} {
		runs = append(runs, goldenReport{
			Queries:        r.Workload.Queries,
			Plan:           r.Plan,
			KeptLists:      r.KeptLists,
			DroppedLists:   r.DroppedLists,
			DroppedEntries: r.DroppedEntries,
			Routed:         r.Routed,
		})
	}
	if len(half.DroppedLists) == 0 || len(half.KeptLists) == 0 {
		t.Fatalf("fixture: the half-budget run should keep some lists and drop others (kept %d, dropped %d)",
			len(half.KeptLists), len(half.DroppedLists))
	}
	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "advisor_report.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("advisor report differs from %s:\n%s", path, got)
	}
}
