package trex

import (
	"testing"
	"time"

	"trex/internal/corpus"
)

const overheadQuery = `//article//sec[about(., ontologies case study)]`

// overheadEngine builds an engine for overhead comparison. The slow-log
// threshold is set unreachably high so the only telemetry work measured
// is the always-on part: trace allocation, span stamping, metric updates.
func overheadEngine(tb testing.TB, disabled bool) *Engine {
	tb.Helper()
	col := corpus.GenerateIEEE(30, 42)
	eng, err := CreateMemory(col, &Options{
		Telemetry: &TelemetryOptions{Disabled: disabled, SlowQueryThreshold: time.Hour},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	return eng
}

// TestQueryTelemetryAllocGuard pins the telemetry tax on the query hot
// path to its budget: the trace struct and its span slice, i.e. at most
// two extra heap allocations per query over a telemetry-free engine.
// Everything else (span stamping, histogram observes, counter bumps,
// slow-log screening) must stay allocation-free.
func TestQueryTelemetryAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short")
	}
	bare := overheadEngine(t, true)
	inst := overheadEngine(t, false)

	// Warm both: parse/translate caches, page cache, advisor state.
	for i := 0; i < 3; i++ {
		if _, err := bare.Query(overheadQuery, 5, MethodERA); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Query(overheadQuery, 5, MethodERA); err != nil {
			t.Fatal(err)
		}
	}

	base := testing.AllocsPerRun(200, func() {
		if _, err := bare.Query(overheadQuery, 5, MethodERA); err != nil {
			t.Fatal(err)
		}
	})
	with := testing.AllocsPerRun(200, func() {
		if _, err := inst.Query(overheadQuery, 5, MethodERA); err != nil {
			t.Fatal(err)
		}
	})
	delta := with - base
	t.Logf("allocs/op: disabled=%.1f enabled=%.1f delta=%.2f", base, with, delta)
	if delta > 2 {
		t.Errorf("telemetry adds %.2f allocs/op, budget is 2 (trace + span slice)", delta)
	}
}

// BenchmarkQueryTelemetryOverhead reports the end-to-end query cost with
// and without telemetry so the overhead shows up in bench output as both
// ns/op and allocs/op.
func BenchmarkQueryTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name     string
		disabled bool
	}{
		{"disabled", true},
		{"enabled", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := overheadEngine(b, mode.disabled)
			if _, err := eng.Query(overheadQuery, 5, MethodERA); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(overheadQuery, 5, MethodERA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
