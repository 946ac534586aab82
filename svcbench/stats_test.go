package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
		want   float64
	}{
		{n: 100, p: 0.9, beyond: 10, ok: true, want: 90},
		{n: 99, p: 0.9, beyond: 9},
		{n: 20, p: 0.5, beyond: 10, ok: true, want: 10},
		{n: 19, p: 0.5, beyond: 9},
		{n: 219, p: 0.9, beyond: 21, ok: true, want: 198},
	} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
		v, err := percentile(seq(tc.n), tc.p)
		if tc.ok != (err == nil) {
			t.Errorf("percentile(n=%d, p=%g) error = %v, want ok=%t", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && v != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", tc.n, tc.p, v, tc.want)
		}
		if !tc.ok && !strings.Contains(err.Error(), "of "+strconv.Itoa(tc.n)+" samples") {
			t.Errorf("error %q does not name the sample count %d", err, tc.n)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
	// majflt cmajflt utime stime ...; the name holds spaces and parentheses.
	line := "4242 (mem (sched) d) S 1 4242 4242 0 -1 4194560 1500 0 3 0 250 75 0 0 20 0 9 0 100 0 0\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "12 (x) S 1 2 3 4 5 6 7 8 9 10 abc 5"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseMetric(t *testing.T) {
	text := `# HELP go_memstats_heap_alloc_bytes Heap bytes allocated and still in use.
# TYPE go_memstats_heap_alloc_bytes gauge
go_memstats_heap_alloc_bytes_total 1
go_memstats_heap_alloc_bytes 1.2345e+07
go_gc_cycles_total 17
memschedd_requests_total{route="/v1/schedule"} 5
`
	for name, want := range map[string]float64{
		"go_memstats_heap_alloc_bytes": 1.2345e7,
		"go_gc_cycles_total":           17,
	} {
		got, err := parseMetric(strings.NewReader(text), name)
		if err != nil || got != want {
			t.Errorf("parseMetric(%s) = %g, %v; want %g", name, got, err, want)
		}
	}
	if _, err := parseMetric(strings.NewReader(text), "memschedd_requests_total"); err == nil {
		t.Error("a labelled sample matched an unlabelled name")
	}
	if _, err := parseMetric(strings.NewReader(text), "go_goroutines"); err == nil {
		t.Error("a missing metric was found")
	}
}

func TestGoodputCountsFailedMismatchedAndLateUnits(t *testing.T) {
	var tl tally
	limit := 100 * time.Millisecond
	tl.add(unitOK, 50*time.Millisecond, limit)
	tl.add(unitOK, 100*time.Millisecond, limit) // at the limit still counts
	tl.add(unitOK, 101*time.Millisecond, limit)
	tl.add(unitFailed, time.Millisecond, limit)
	tl.add(unitMismatch, time.Millisecond, limit)
	want := tally{attempted: 5, failed: 1, mismatched: 1, late: 1, good: 2}
	if tl != want {
		t.Errorf("tally = %+v, want %+v", tl, want)
	}
	if got := tl.goodput(); got != 0.4 {
		t.Errorf("goodput = %g, want 0.4", got)
	}
	if got := (tally{}).goodput(); got != 0 {
		t.Errorf("empty goodput = %g", got)
	}
	// A run's verdict merges the warm-up tally into the window's, so a
	// mismatch during warm-up still fails the run.
	var warm tally
	warm.add(unitMismatch, time.Millisecond, limit)
	warm.merge(tl)
	want.attempted, want.mismatched = 6, 2
	if warm != want {
		t.Errorf("merged tally = %+v, want %+v", warm, want)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "unit", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 4, Parent: 2, Name: "b/x", Start: ms(25), End: ms(35)},
		{ID: 5, Parent: -1, Name: "other", Start: ms(0), End: ms(5)},
	}
	want := []time.Duration{ms(50), ms(20), ms(20), ms(30), ms(10), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.add("y", -1, 0, 0, 1) != -1 {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("unit", -1, 7)
	child := tr.add("server.engine", root, 7, tr.spans[root].Start, tr.spans[root].Start)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[root].Unit != 7 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// The metric lists the benchmark prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		want []struct{ Name, Unit string }
		got  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, layerMetrics}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", tc.kind, len(tc.got), len(tc.want))
			continue
		}
		for i, d := range tc.got {
			if d.name != tc.want[i].Name || d.unit != tc.want[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json has %s (%s)", tc.kind, i, d.name, d.unit, tc.want[i].Name, tc.want[i].Unit)
			}
		}
	}
}

func TestAlternateBalancesEveryCatalogEntry(t *testing.T) {
	for _, n := range []int{1, 8, 32} {
		traced := make([]int, n)
		for i := 0; i < 64*n; i++ {
			if alternate(i) {
				traced[i%n]++
			}
		}
		for k, c := range traced {
			if c != 32 {
				t.Errorf("catalog of %d: entry %d traced %d of 64 times", n, k, c)
			}
		}
	}
}
