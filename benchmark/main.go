// Command benchmark is the repository's one benchmark: four workloads,
// each measuring every end-to-end metric BENCHMARK.json names on its own
// database regime, and a traced run that measures every per-layer
// metric. See README.md in this directory.
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-trace] [-out f.json]
//	go run ./benchmark -compare a.json b.json
//
// The driver's form, `--workload w --seed n --seconds s --trace 0|1`, is
// accepted as is; the last line of standard output is the run's result
// as one JSON object.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory (the
// driver's checkout root) or its parent (go test runs in benchmark/),
// and returns it with the directory it was found in.
func loadBenchmarkFile() (*benchmarkFile, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var bm benchmarkFile
		if err := json.Unmarshal(data, &bm); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if bm.RunSeconds <= 0 {
			return nil, "", fmt.Errorf("BENCHMARK.json: run_seconds must be positive")
		}
		return &bm, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden fails a full-scale run at the benchmark's own length whose
// generated inputs differ from the pinned fingerprint of its seed:
// generator drift must not move the numbers silently. Seeds without a
// pin are not checked.
func checkGolden(o runOptions, bm *benchmarkFile, fp string) error {
	if o.smoke || o.seconds != float64(bm.RunSeconds) {
		return nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[fmt.Sprint(o.seed)][o.workload]
	if ok && want != fp {
		return fmt.Errorf("input fingerprint of %s at seed %d is %s, golden.json pins %s: the generators drifted",
			o.workload, o.seed, fp, want)
	}
	return nil
}

// normalizeTrace rewrites the driver's `--trace 0|1` (and a bare
// `-trace`) into the -trace=<bool> form the flag package parses.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if args[i] != "-trace" && args[i] != "--trace" {
			out = append(out, args[i])
			continue
		}
		v := "1"
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			v = args[i+1]
			i++
		}
		out = append(out, "-trace="+v)
	}
	return out
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "how long a run measures (default: BENCHMARK.json run_seconds)")
	trace := fs.Bool("trace", false, "traced run: record spans, report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny corpora and repeat counts (what the tests run)")
	out := fs.String("out", "", "append the run's result to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(normalizeTrace(os.Args[1:])); err != nil {
		return err
	}
	bm, root, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, bm, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(bm.RunSeconds)
	}
	// Scratch databases and span files stay inside the checkout, in the
	// directory the root .gitignore names.
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	wrong := false
	for _, name := range names {
		o := runOptions{workload: name, seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, scratch: scratch}
		if *trace {
			o.spansPath = filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.json", name, *seed))
		}
		res, err := runWorkload(context.Background(), o, bm)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return err
			}
		}
		if err := printResult(os.Stdout, res, o.spansPath); err != nil {
			return err
		}
		wrong = wrong || res.Failed > 0
	}
	if wrong {
		return fmt.Errorf("the checker found wrong answers or failed operations")
	}
	return nil
}

// printResult prints every metric as `workload metric value unit`, then
// the run's result as one JSON object on the last line.
func printResult(w io.Writer, res *result, spans string) error {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio n=%d\n", res.Workload, ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	for _, ph := range []string{"setup", "check", "grid", "replay", "references", "serve", "write", "finish"} {
		if s, ok := res.PhaseSeconds[ph]; ok {
			fmt.Fprintf(w, "%s wall.%s %.3f s\n", res.Workload, ph, s)
		}
	}
	fmt.Fprintf(w, "%s fingerprint %s\n", res.Workload, res.Fingerprint)
	if spans != "" {
		fmt.Fprintf(w, "%s spans %s\n", res.Workload, spans)
	}
	if res.Failure != "" {
		fmt.Fprintf(w, "%s first_failure %s\n", res.Workload, res.Failure)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// resultFile is what -out accumulates and -compare reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, res *result) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
