package trex

import (
	"fmt"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/faultinject"
	"trex/internal/index"
	"trex/internal/storage"
)

// crashPrebuilt are materialized before the re-plan; crashWorkload
// shifts away from them: it references the second one's lists (covered,
// so measured where they are and kept or dropped), rebuilds
// "ontologies" beside the first one's committed entries for that term,
// and adds a query nothing built.
var (
	crashPrebuilt = []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
	}
	crashWorkload = []WorkloadQuery{
		{NEXI: `//article[about(., xml query evaluation)]`, Freq: 0.3, K: 10},
		{NEXI: `//article//p[about(., ontologies)]`, Freq: 0.4, K: 10},
		{NEXI: `//bdy//*[about(., model checking)]`, Freq: 0.3, K: 10},
	}
)

// crashEngine builds an engine over a fresh fault-injection disk, with
// crashPrebuilt materialized and flushed: the same pre-replan image on
// every call.
func crashEngine(t *testing.T) (*Engine, *faultinject.Disk) {
	t.Helper()
	d := faultinject.NewDisk(5)
	db, err := storage.NewDB(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := CreateOnDB(db, corpus.GenerateIEEE(60, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range crashPrebuilt {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}
	return eng, d
}

// dumpLists opens a copy of the disk image at index level and renders
// the catalog and both list tables.
func dumpLists(t *testing.T, d *faultinject.Disk) string {
	t.Helper()
	db, err := storage.OpenBackend(d.Snapshot(), nil)
	if err != nil {
		t.Fatalf("open image: %v", err)
	}
	st, err := index.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tree := range []*storage.Tree{st.Catalog, st.RPLs, st.ERPLs} {
		fmt.Fprintln(&sb, "==")
		cur := tree.Cursor()
		ok, err := cur.First()
		for ; ok; ok, err = cur.Next() {
			fmt.Fprintf(&sb, "%x %x\n", cur.Key(), cur.Value())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestCrashLoopSelfManage kills the disk at every write boundary of one
// SelfManage whose plan both writes lists and drops committed ones, then
// reopens the image at index level: the catalog and list rows must be
// exactly the pre-replan or the post-replan ones.
func TestCrashLoopSelfManage(t *testing.T) {
	const budget = 3000
	eng, d := crashEngine(t)
	pre := dumpLists(t, d)
	base := d.Writes()
	report, err := eng.SelfManage(crashWorkload, budget, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	total := d.Writes() - base
	post := dumpLists(t, d)
	if post == pre || total == 0 {
		t.Fatal("fixture: the re-plan changed nothing")
	}
	built := make(map[string]bool)
	for _, q := range crashPrebuilt {
		tr, err := eng.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		sids, terms := flatten(tr)
		for _, term := range terms {
			for _, sid := range sids {
				built[listKey(index.KindRPL, term, sid)] = true
				built[listKey(index.KindERPL, term, sid)] = true
			}
		}
	}
	var keptNew, droppedOld bool
	for _, k := range report.KeptLists {
		keptNew = keptNew || !built[k]
	}
	for _, k := range report.DroppedLists {
		droppedOld = droppedOld || built[k]
	}
	if !keptNew || !droppedOld {
		t.Fatalf("fixture: the plan should write new lists (%v) and drop committed ones (%v)", keptNew, droppedOld)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	recoveredPre, recoveredPost := 0, 0
	for k := 0; k <= total; k++ {
		eng, d := crashEngine(t)
		d.CrashAfterWrites(k)
		_, err := eng.SelfManage(crashWorkload, budget, SolverGreedy) // the process dies here
		if k < total && err == nil {
			t.Fatalf("k=%d/%d: re-plan succeeded with a crash armed", k, total)
		}
		if k == total && err != nil {
			t.Fatalf("k=%d/%d: re-plan failed with the full write budget: %v", k, total, err)
		}
		switch dumpLists(t, d) {
		case pre:
			recoveredPre++
		case post:
			recoveredPost++
		default:
			t.Fatalf("k=%d/%d: the reopened lists are neither the pre-replan nor the post-replan ones", k, total)
		}
	}
	if recoveredPost == 0 {
		t.Fatal("no crash point recovered to the post-replan lists")
	}
	t.Logf("%d boundaries: %d recovered pre-replan, %d post-replan", total+1, recoveredPre, recoveredPost)
}
