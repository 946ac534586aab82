// Command svcbench is the repository's service benchmark. It launches
// memschedd processes (replicas, plus a router where the workload needs
// one), drives one closed-loop workload from a single client over
// keep-alive connections, checks every response against the library, and
// prints its metrics by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes
// a separate traced run that reports the per-layer split and writes its
// spans to <out>/traces/. See NOTES.md for the workloads and metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash svcbench/run.sh --workload sweep-replay --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times an end-to-end run sets the cluster up;
// setup_s is their median.
const setupRounds = 3

// warmup runs units after setup and before the timed window.
const warmup = 2 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	memschedd string
	out       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: inline-routed, id-churn or sweep-replay")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	flag.StringVar(&o.memschedd, "memschedd", "", "path of the memschedd binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for server logs and span files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "inline-routed":
		return newInlineRouted(seed)
	case "id-churn":
		return newIDChurn(seed)
	case "sweep-replay":
		return newSweepReplay(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want inline-routed, id-churn or sweep-replay)", name)
}

func run(o options) error {
	if o.memschedd == "" {
		return errors.New("-memschedd is required")
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	logDir := filepath.Join(o.out, "logs", o.workload)
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	calibStart := calibrate()
	t0 := time.Now()
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("# inputs and library reference built in %.2f s; result digest %s\n", time.Since(t0).Seconds(), w.digest())
	dur := time.Duration(o.seconds) * time.Second
	var res result
	if o.trace == 0 {
		res, err = endToEnd(o, w, logDir, dur)
	} else {
		res, err = traced(o, w, logDir, dur, calibStart)
	}
	if err != nil {
		return err
	}
	if o.trace == 0 {
		fmt.Printf("# host.calib_ms start %.2f end %.2f\n", calibStart, calibrate())
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %12.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("a response differed from the library reference")
	}
	return nil
}

// windowStats is what one closed-loop window measured.
type windowStats struct {
	lat       []float64 // latencies of untraced units, ms
	tracedLat []float64 // latencies of traced units, ms
	tally     tally
	schedules int
	elapsed   time.Duration
	serverCPU time.Duration
	driverCPU time.Duration
	next      int // index of the next unit
}

// runWindow drives units first, first+1, ... one at a time until dur has
// passed, then lets the last one finish. With a tracer, half the units are
// traced, interleaved with the untraced ones so both share the host's
// drift; see alternate for which half.
func runWindow(w workload, c *client, cl *cluster, first int, dur time.Duration, tr *tracer) (windowStats, error) {
	ws := windowStats{next: first}
	cpu0, err := cl.cpu()
	if err != nil {
		return ws, err
	}
	drv0, err := cpuOf(os.Getpid())
	if err != nil {
		return ws, err
	}
	start := time.Now()
	for time.Since(start) < dur {
		var utr *tracer
		if alternate(ws.next) {
			utr = tr
		}
		root := utr.begin("unit", -1, ws.next)
		t := time.Now()
		o, n := w.unit(c, cl.front(), ws.next, utr, root)
		lat := time.Since(t)
		utr.end(root)
		ws.tally.add(o, lat, w.limit())
		if utr != nil {
			ws.tracedLat = append(ws.tracedLat, ms(lat))
		} else {
			ws.lat = append(ws.lat, ms(lat))
		}
		ws.schedules += n
		ws.next++
	}
	ws.elapsed = time.Since(start)
	cpu1, err := cl.cpu()
	if err != nil {
		return ws, err
	}
	drv1, err := cpuOf(os.Getpid())
	if err != nil {
		return ws, err
	}
	ws.serverCPU, ws.driverCPU = cpu1-cpu0, drv1-drv0
	return ws, nil
}

// alternate splits units into two interleaved halves by the parity of
// the unit index's set bits (the Thue–Morse sequence). Unlike i%2 it does
// not tie a half to every other catalog entry: over each pass through a
// catalog whose length is a power of two, every entry lands in both halves
// equally often.
func alternate(i int) bool { return bits.OnesCount(uint(i))%2 == 1 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setUp launches the workload's cluster and runs its setup, returning the
// time from launching the first process to the last setup answer.
func setUp(o options, w workload, logDir string, top topology) (*cluster, *client, time.Duration, error) {
	t := time.Now()
	cl, err := startCluster(o.memschedd, logDir, top)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient()
	if err := w.setup(c, cl); err != nil {
		cl.stop()
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return cl, c, time.Since(t), nil
}

func endToEnd(o options, w workload, logDir string, dur time.Duration) (result, error) {
	var (
		cl     *cluster
		c      *client
		setups []float64
	)
	for k := 0; k < setupRounds; k++ {
		var d time.Duration
		var err error
		if cl, c, d, err = setUp(o, w, logDir, w.topology()); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRounds-1 {
			cl.stop()
			c.http.CloseIdleConnections()
		}
	}
	defer cl.stop()
	warm, err := runWindow(w, c, cl, 0, warmup, nil)
	if err != nil {
		return result{}, err
	}
	gc0, err := cl.sumMetric("go_gc_cycles_total")
	if err != nil {
		return result{}, err
	}
	ws, err := runWindow(w, c, cl, warm.next, dur, nil)
	if err != nil {
		return result{}, err
	}
	gc1, err := cl.sumMetric("go_gc_cycles_total")
	if err != nil {
		return result{}, err
	}
	// Warm-up units are checked like the others: a mismatch there fails
	// the run too.
	all := warm.tally
	all.merge(ws.tally)
	if all.mismatched > 0 {
		fmt.Printf("# %d of %d units differed from the library reference\n", all.mismatched, all.attempted)
		return result{
			Attempted: all.attempted,
			Failed:    all.failed + all.mismatched,
			Metrics:   withUnits(endToEndMetrics, nil),
		}, nil
	}
	p50, err := percentile(ws.lat, 0.5)
	if err != nil {
		return result{}, err
	}
	p90, err := percentile(ws.lat, 0.9)
	if err != nil {
		return result{}, err
	}
	if ws.schedules == 0 {
		return result{}, errors.New("no schedule was delivered in the window")
	}
	heap, err := cl.liveHeap()
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# setup_s rounds %s\n", fmtFloats(setups))
	fmt.Printf("# window units %d (failed %d, mismatched %d, late %d) schedules %d in %.2f s\n",
		ws.tally.attempted, ws.tally.failed, ws.tally.mismatched, ws.tally.late, ws.schedules, ws.elapsed.Seconds())
	fmt.Printf("# latency p50 %.2f ms p90 %.2f ms over n=%d units (%d beyond p90)\n", p50, p90, len(ws.lat), samplesBeyond(len(ws.lat), 0.9))
	fmt.Printf("# driver cpu %.1f ms per unit; replica GC cycles %.3f per schedule\n",
		ms(ws.driverCPU)/float64(ws.tally.attempted), (gc1-gc0)/float64(ws.schedules))
	return result{
		Correct:   true,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: withUnits(endToEndMetrics, map[string]float64{
			"latency_p50_ms":       p50,
			"latency_p90_ms":       p90,
			"schedules_per_s":      float64(ws.schedules) / ws.elapsed.Seconds(),
			"cpu_ms_per_schedule":  ms(ws.serverCPU) / float64(ws.schedules),
			"goodput_ratio":        ws.tally.goodput(),
			"replica_live_heap_mb": heap / 1e6,
			"setup_s":              median(setups),
		}),
	}, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics lists the metrics of an untraced run, in the order
// BENCHMARK.json declares them.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"schedules_per_s", "1/s"},
	{"cpu_ms_per_schedule", "ms"},
	{"goodput_ratio", "ratio"},
	{"replica_live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// withUnits pairs every listed metric with its value (0 when absent).
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// calibBuf is hashed by calibrate: 64 MiB of fixed bytes.
var calibBuf = func() []byte {
	b := make([]byte, 64<<20)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// calibrate times SHA-256 over a fixed buffer: CPU work that uses no
// repository code, so its drift between runs is the host's, not the
// program's. It returns milliseconds.
func calibrate() float64 {
	t := time.Now()
	sha256.Sum256(calibBuf)
	return ms(time.Since(t))
}
