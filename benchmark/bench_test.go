package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAllWorkloads runs every workload at the smoke scale, untraced
// and traced, and checks what the driver and later PRs rely on: exactly
// the metrics BENCHMARK.json names, once each, no failed operation, and
// spans that nest.
func TestSmokeAllWorkloads(t *testing.T) {
	bm, _, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				o := runOptions{workload: wl.Name, seed: defaultSeed, seconds: float64(bm.RunSeconds),
					trace: traced, smoke: true, scratch: dir}
				want := bm.EndToEnd
				if traced {
					o.spansPath = filepath.Join(dir, "spans.json")
					want = bm.PerLayer
				}
				res, err := runWorkload(context.Background(), o, bm)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("failed %d of %d attempted: %s", res.Failed, res.Attempted, res.Failure)
				}
				got := make(map[string]metric)
				for _, m := range res.Metrics {
					if _, dup := got[m.Name]; dup {
						t.Errorf("metric %s emitted twice", m.Name)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q breaks the naming rule", m.Name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, m.Value)
					}
					got[m.Name] = m
				}
				for _, d := range want {
					m, ok := got[d.Name]
					if !ok {
						t.Errorf("metric %s of BENCHMARK.json not emitted", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
				}
				if traced {
					checkSpanFile(t, o.spansPath)
				}
				var out bytes.Buffer
				if err := printResult(&out, res, o.spansPath); err != nil {
					t.Fatal(err)
				}
				checkLastLine(t, out.String(), want)
			})
		}
	}
}

// checkSpanFile re-reads the written spans: parents come first, share
// the request, and contain their children.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	rec := &recorder{spans: spans}
	if err := rec.checkNesting(); err != nil {
		t.Error(err)
	}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
	}
	for _, l := range []string{"engine", "retrieval", "ingest", "selfmanage"} {
		if !layers[l] {
			t.Errorf("no span of layer %s", l)
		}
	}
}

// checkLastLine verifies the driver's contract on the last output line.
func checkLastLine(t *testing.T, out string, want []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil {
		t.Errorf("bad result header in %s", lines[len(lines)-1])
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("last line has %d metrics, want %d", len(last.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("last line lacks %s [%s]", d.Name, d.Unit)
		}
	}
}

// TestBenchmarkFileContract holds BENCHMARK.json to the limits the
// driver refuses a file for.
func TestBenchmarkFileContract(t *testing.T) {
	bm, root, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bm.RunSeconds)
	}
	if n := len(bm.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(bm.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bm.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range bm.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program knows %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range bm.EndToEnd {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range bm.PerLayer {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bm.Paths)
	}
	for _, a := range bm.Command {
		if strings.HasPrefix(a, "/") || strings.Contains(a, "..") || len(a) > 200 {
			t.Errorf("command argument %q", a)
		}
	}
}

// TestCompare pins the four verdicts and the non-zero exit on worse.
func TestCompare(t *testing.T) {
	bm := &benchmarkFile{
		EndToEnd: []metricDef{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	bm.Workloads = append(bm.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	write := func(name string, lat, qps []float64) string {
		var f resultFile
		for i := range lat {
			f.Runs = append(f.Runs, &result{Workload: "w", Metrics: []metric{
				{Name: "lat_ms", Value: lat[i], Unit: "ms"}, {Name: "qps", Value: qps[i], Unit: "1/s"}}})
		}
		data, _ := json.Marshal(f)
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", []float64{10, 10.1, 9.9}, []float64{100, 101, 99})
	cases := []struct {
		name     string
		lat, qps []float64
		want     []string
		wantErr  bool
	}{
		{"same", []float64{10.2, 10.1, 10.3}, []float64{98, 99, 100}, []string{"same", "same"}, false},
		{"worse", []float64{12, 12.1, 11.9}, []float64{100, 101, 99}, []string{"worse", "same"}, true},
		{"better", []float64{10, 10.1, 9.9}, []float64{130, 131, 129}, []string{"same", "better"}, false},
		{"unresolved", []float64{8, 12, 16}, []float64{100, 101, 99}, []string{"unresolved", "same"}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, bm, base, write("b.json", c.lat, c.qps))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v", c.name, err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, w := range c.want {
			if i >= len(rows) || !strings.HasSuffix(strings.TrimSpace(rows[i]), w) {
				t.Errorf("%s: row %d = %q, want verdict %s", c.name, i, rows, w)
			}
		}
	}
}

// TestQuartileSpread pins the spread against values computed with
// Python's statistics.quantiles(v, n=4).
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11}, (12.0 - 10.0) / 11},
		{[]float64{5, 7}, (7.5 - 4.5) / 6},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for in, want := range map[string]string{
		"--workload w --trace 1 --seed 3": "--workload w -trace=1 --seed 3",
		"--trace 0":                       "-trace=0",
		"-trace -seed 3":                  "-trace=1 -seed 3",
		"-workload all":                   "-workload all",
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGoldenPinsBothSeeds: the default and the held-out seed have a
// pinned input fingerprint for every workload.
func TestGoldenPinsBothSeeds(t *testing.T) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, w := range workloadNames {
			if len(golden[fmt.Sprint(seed)][w]) != 64 {
				t.Errorf("golden.json has no sha256 for seed %d, workload %s", seed, w)
			}
		}
	}
}
