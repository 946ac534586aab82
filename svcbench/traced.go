package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/serve"
)

// Shares of -seconds spent by the traced run: an untraced window, a window
// alternating traced and untraced units, the router-hop comparison and
// the in-process layer calls. A workload without a router gives the hop's
// share to the alternating window.
const (
	shareUntraced = 0.3
	shareTraced   = 0.3
	shareHop      = 0.2
	shareLayers   = 0.2
)

// traceKeep makes the replicas retain every traced request's capture, so
// a sweep's server timeline can be joined to its client span by id.
const traceKeep = 4096

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A layer that does not run on a workload
// reports 0.
var layerMetrics = []metricDef{
	{"cluster.routing_key_ms", "ms"},
	{"cluster.router_hop_ms", "ms"},
	{"serve.request_decode_ms", "ms"},
	{"serve.point_encode_us", "us"},
	{"dag.graph_decode_ms", "ms"},
	{"dag.canonical_hash_ms", "ms"},
	{"session.build_ms", "ms"},
	{"session.hit_ratio", "ratio"},
	{"engine.cold_schedule_ms", "ms"},
	{"engine.warm_schedule_ms.dual", "ms"},
	{"engine.warm_schedule_ms.kpool", "ms"},
	{"engine.candidate_hit_ratio", "ratio"},
	{"engine.allocs_per_schedule", "count"},
	{"finalize.peak_residency_ms", "ms"},
	{"sweep.run_ms", "ms"},
	{"sweep.replayed_ratio", "ratio"},
	{"sweep.truncated_points", "count"},
	{"span.admission_ms", "ms"},
	{"span.decode_ms", "ms"},
	{"span.resolve_ms", "ms"},
	{"span.engine_ms", "ms"},
	{"span.engine.rank_ms", "ms"},
	{"span.engine.statics_ms", "ms"},
	{"span.engine.placement_ms", "ms"},
	{"span.engine.replay_ms", "ms"},
	{"span.finalize_ms", "ms"},
	{"span.sweep_ms", "ms"},
	{"span.coverage_ratio", "ratio"},
	{"runtime.gc_cycles_per_schedule", "count"},
	{"runtime.alloc_kb_per_unit", "KB"},
	{"driver.cpu_ms_per_unit", "ms"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.blocking_path_ratio", "ratio"},
}

// serverPhases maps server span names to their per-layer metric.
var serverPhases = map[string]string{
	"server.admission":        "span.admission_ms",
	"server.decode":           "span.decode_ms",
	"server.resolve":          "span.resolve_ms",
	"server.engine":           "span.engine_ms",
	"server.engine/rank":      "span.engine.rank_ms",
	"server.engine/statics":   "span.engine.statics_ms",
	"server.engine/placement": "span.engine.placement_ms",
	"server.engine/replay":    "span.engine.replay_ms",
	"server.finalize":         "span.finalize_ms",
	"server.sweep":            "span.sweep_ms",
}

func traced(o options, w workload, logDir string, dur time.Duration, calibStart float64) (result, error) {
	top := w.topology()
	top.traceKeep = traceKeep
	// Only inline-routed runs a router, so only it measures the hop.
	iw, routed := w.(*inlineRouted)
	tracedShare, hopShare := shareTraced, shareHop
	if !routed {
		tracedShare, hopShare = shareTraced+shareHop, 0
	}
	cl, c, _, err := setUp(o, w, logDir, top)
	if err != nil {
		return result{}, err
	}
	defer cl.stop()
	warm, err := runWindow(w, c, cl, 0, warmup, nil)
	if err != nil {
		return result{}, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	gc0, err := cl.sumMetric("go_gc_cycles_total")
	if err != nil {
		return result{}, err
	}
	hits0, misses0, err := sessionCounts(cl)
	if err != nil {
		return result{}, err
	}
	plain, err := runWindow(w, c, cl, warm.next, share(shareUntraced), nil)
	if err != nil {
		return result{}, err
	}
	gc1, err := cl.sumMetric("go_gc_cycles_total")
	if err != nil {
		return result{}, err
	}
	hits1, misses1, err := sessionCounts(cl)
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	tracedWin, err := runWindow(w, c, cl, plain.next, share(tracedShare), tr)
	if err != nil {
		return result{}, err
	}
	if err := attachCaptures(tr, cl); err != nil {
		return result{}, err
	}
	m := map[string]float64{}
	if routed {
		if m["cluster.router_hop_ms"], err = hop(iw, c, cl, tracedWin.next, share(hopShare)); err != nil {
			return result{}, err
		}
	}
	lb := newLayerBench(tr, share(shareLayers))
	if err := w.layers(lb); err != nil {
		return result{}, err
	}
	for k, v := range lb.metrics() {
		m[k] = v
	}

	// The server's top-level phases are disjoint and its sub-phases nest
	// inside them, so the server-attributed part of a unit is the summed
	// length of its top-level server spans.
	self := selfTimes(tr.spans)
	phase := map[string][]float64{}
	selfByName := map[string][]float64{}
	topLen := map[int]time.Duration{}
	unitServer := map[int]time.Duration{}
	for i, s := range tr.spans {
		if name, ok := serverPhases[s.Name]; ok {
			phase[name] = append(phase[name], ms(s.End-s.Start))
		}
		if s.Parent >= 0 && tr.served[s.Parent] && strings.HasPrefix(s.Name, "server.") && !strings.Contains(s.Name, "/") {
			topLen[s.Parent] += s.End - s.Start
			unitServer[s.Unit] += s.End - s.Start
		}
		selfByName[s.Name] = append(selfByName[s.Name], ms(self[i]))
	}
	var coverage, attributed, unitLat []float64
	for i, s := range tr.spans {
		switch {
		case s.Name == "unit":
			unitLat = append(unitLat, ms(s.End-s.Start))
			attributed = append(attributed, ms(unitServer[s.Unit]))
		case tr.served[i]:
			coverage = append(coverage, float64(topLen[i])/float64(s.End-s.Start))
		}
	}
	for name, v := range phase {
		m[name] = median(v)
	}
	m["span.coverage_ratio"] = median(coverage)
	tracedP50, plainP50 := median(tracedWin.tracedLat), median(tracedWin.lat)
	m["trace.overhead_ratio"] = tracedP50 / plainP50
	hopOnPath := m["cluster.router_hop_ms"]
	blocking := median(attributed) + hopOnPath
	m["trace.blocking_path_ratio"] = blocking / median(unitLat)
	if lookups := (hits1 - hits0) + (misses1 - misses0); lookups > 0 {
		m["session.hit_ratio"] = float64(hits1-hits0) / float64(lookups)
	}
	if plain.schedules > 0 {
		m["runtime.gc_cycles_per_schedule"] = (gc1 - gc0) / float64(plain.schedules)
	}
	if plain.tally.attempted > 0 {
		m["driver.cpu_ms_per_unit"] = ms(plain.driverCPU) / float64(plain.tally.attempted)
	}
	calibEnd := calibrate()
	m["host.calib_ms"] = (calibStart + calibEnd) / 2

	path, err := writeSpans(o, tr)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# spans written to %s (%d spans)\n", path, len(tr.spans))
	fmt.Printf("# alternating units: untraced p50 %.2f ms (n=%d), traced p50 %.2f ms (n=%d)\n",
		plainP50, len(tracedWin.lat), tracedP50, len(tracedWin.tracedLat))
	fmt.Printf("# blocking path: server spans %.2f ms + router hop %.2f ms = %.2f ms of the traced unit p50 %.2f ms (%.0f%%)\n",
		median(attributed), hopOnPath, blocking, median(unitLat), 100*m["trace.blocking_path_ratio"])
	names := make([]string, 0, len(selfByName))
	for n := range selfByName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# median self time per span name (ms), request and layer-call spans:")
	for _, n := range names {
		fmt.Printf("#   %-36s %10.3f  (n=%d)\n", n, median(selfByName[n]), len(selfByName[n]))
	}
	fmt.Printf("# host.calib_ms start %.2f end %.2f\n", calibStart, calibEnd)

	all := warm.tally
	all.merge(plain.tally)
	all.merge(tracedWin.tally)
	return result{
		Correct:   all.mismatched == 0,
		Attempted: all.attempted,
		Failed:    all.failed + all.mismatched,
		Metrics:   withUnits(layerMetrics, m),
	}, nil
}

// hop sends each unit twice, through the router and straight to the
// replica that serves it, alternating which goes first so that neither
// side always finds the other's warm state; the difference of the two
// medians is the router's cost.
func hop(w *inlineRouted, c *client, cl *cluster, first int, dur time.Duration) (float64, error) {
	var routed, direct []float64
	start := time.Now()
	for i := first; i == first || time.Since(start) < dur; i++ {
		bases := []string{cl.router.url, cl.replicas[w.owner(i)].url}
		if alternate(i) {
			bases[0], bases[1] = bases[1], bases[0]
		}
		for _, base := range bases {
			t := time.Now()
			if o, _ := w.unit(c, base, i, nil, -1); o != unitOK {
				return 0, fmt.Errorf("router hop unit %d via %s: %v", i, base, o)
			}
			if base == cl.router.url {
				routed = append(routed, ms(time.Since(t)))
			} else {
				direct = append(direct, ms(time.Since(t)))
			}
		}
	}
	return median(routed) - median(direct), nil
}

// sessionCounts sums the replicas' session-cache hits and misses.
func sessionCounts(cl *cluster) (hits, misses uint64, err error) {
	hs, err := healths(cl)
	for _, h := range hs {
		hits += h.SessionHits
		misses += h.SessionMisses
	}
	return hits, misses, err
}

// attachCaptures joins the replicas' retained request traces to the
// client's http spans by request id, for requests whose response carried
// no timeline of its own (sweep streams). The router suffixes a failover
// hop's id, so the base id is matched.
func attachCaptures(tr *tracer, cl *cluster) error {
	for _, s := range cl.replicas {
		var resp serve.TracesResponse
		code, err := getJSON(probe, s.url+"/debug/traces", &resp)
		if err != nil {
			return fmt.Errorf("%s traces: %w", s.name, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s traces: status %d", s.name, code)
		}
		for _, caps := range resp.Routes {
			for _, cp := range caps {
				id, _, _ := strings.Cut(cp.RequestID, "-f")
				sp, ok := tr.reqs[id]
				if !ok || tr.served[sp] {
					continue
				}
				addServerSpans(tr, sp, cp.Spans)
			}
		}
	}
	return nil
}

// writeSpans writes the run's spans as JSON under <out>/traces/.
func writeSpans(o options, tr *tracer) (string, error) {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, tr.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
