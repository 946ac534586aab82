package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 from fewer than 100 samples rests on a handful of
// values and moves with every stall.
const minTail = 10

// samplesBeyond returns how many of n sorted samples lie above the
// nearest-rank p-quantile (0 < p < 1).
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of the samples and fails
// when fewer than minTail samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, errors.New("no samples")
	}
	if got := samplesBeyond(n, p); got < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need %d", p*100, n, got, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(n, p)-1], nil
}

// median returns the middle of the samples (mean of the two middle ones
// for an even count); 0 for no samples. It is for layer timings, which
// carry no tail rule.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome classifies one unit the client waited on.
type outcome int

const (
	unitOK       outcome = iota // every response arrived and matched the library
	unitFailed                  // a transport error or an unexpected status
	unitMismatch                // a response differed from the library reference
)

func (o outcome) String() string {
	switch o {
	case unitOK:
		return "ok"
	case unitFailed:
		return "failed"
	case unitMismatch:
		return "differs from the library reference"
	}
	return "outcome(" + strconv.Itoa(int(o)) + ")"
}

// tally counts units for goodput: a unit is good when it succeeded,
// matched the reference and finished within the workload's latency limit.
type tally struct {
	attempted, failed, mismatched, late, good int
}

func (t *tally) add(o outcome, lat, limit time.Duration) {
	t.attempted++
	switch {
	case o == unitFailed:
		t.failed++
	case o == unitMismatch:
		t.mismatched++
	case lat > limit:
		t.late++
	default:
		t.good++
	}
}

// merge adds the counts of u.
func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.mismatched += u.mismatched
	t.late += u.late
	t.good += u.good
}

// goodput is the share of attempted units that were good.
func (t tally) goodput() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.good) / float64(t.attempted)
}

// span is one traced interval of the benchmark: a layer call or a request
// as the client saw it. Unit names the closed-loop unit (or layer-call
// round) the span belongs to; Parent is -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Unit   int           `json:"unit"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
	// reqs maps the request id sent with each traced request to its
	// "http" span; served marks the http spans that already hold the
	// server's timeline.
	reqs   map[string]int
	served map[int]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqs: map[string]int{}, served: map[int]bool{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Unit: unit, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent, unit int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Unit: unit, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its length minus the part of
// it that its children's intervals cover (overlapping children count
// once; the parts of children outside the parent count not at all).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		self[i] = (s.End - s.Start) - union(ivs)
	}
	return self
}

// union returns the total length covered by the intervals.
func union(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture the Go toolchain targets.
const clockTicks = 100

// parseProcStat returns utime+stime of a /proc/<pid>/stat line. The
// command name may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("stat line has no ')'")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is the state (field 3); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the name, need 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseMetric returns the value of an unlabelled sample named name from a
// Prometheus text exposition.
func parseMetric(r io.Reader, name string) (float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, name)
		if !ok || len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		f := strings.Fields(rest)
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not found", name)
}
