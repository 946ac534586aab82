package multi

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

// memoryPeaksReference is the original MemoryPeaks: expand residencies,
// append both events of each interval per pool, sort.Slice with the Eps
// comparator. It is the oracle the single-pass implementation must match
// bit for bit.
func (s *Schedule) memoryPeaksReference() []int64 {
	type event struct {
		t     float64
		delta int64
	}
	evs := make([][]event, s.Platform.NumPools())
	for _, r := range s.residencies() {
		evs[r.pool] = append(evs[r.pool], event{r.from, r.size}, event{r.to, -r.size})
	}
	peaks := make([]int64, s.Platform.NumPools())
	for k := range evs {
		sort.Slice(evs[k], func(i, j int) bool {
			if math.Abs(evs[k][i].t-evs[k][j].t) > Eps {
				return evs[k][i].t < evs[k][j].t
			}
			return evs[k][i].delta < evs[k][j].delta
		})
		var cur int64
		for _, e := range evs[k] {
			cur += e.delta
			if cur > peaks[k] {
				peaks[k] = cur
			}
		}
	}
	return peaks
}

func samePeaks(t *testing.T, tag string, s *Schedule) {
	t.Helper()
	got, want := s.MemoryPeaks(), s.memoryPeaksReference()
	if len(got) != len(want) {
		t.Fatalf("%s: %d peaks, reference has %d", tag, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: peaks %v, reference %v", tag, got, want)
		}
	}
}

// TestMemoryPeaksMatchesReferenceOnHeuristicSchedules compares the
// single-pass MemoryPeaks with the oracle on k-pool schedules from both
// heuristics over random instances, pool counts and memory pressures.
func TestMemoryPeaksMatchesReferenceOnHeuristicSchedules(t *testing.T) {
	runs := 0
	for _, n := range []int{30, 300} {
		for _, k := range []int{1, 2, 3, 5} {
			for seed := int64(1); seed <= 4; seed++ {
				in := randomInstance(seed*1000+int64(n+k), n, k)
				total := totalFiles(in)
				for _, alpha := range []float64{0.3, 0.7, 2} {
					pools := make([]Pool, k)
					for j := range pools {
						pools[j] = Pool{Procs: 1 + j%2, Capacity: int64(alpha * float64(total))}
					}
					p := NewPlatform(pools...)
					for name, run := range map[string]Func{"memheft": MemHEFT, "memminmin": MemMinMin} {
						s, err := run(tctx, in, p, Options{Seed: seed})
						if errors.Is(err, ErrMemoryBound) {
							continue
						}
						if err != nil {
							t.Fatalf("%s n=%d k=%d: %v", name, n, k, err)
						}
						samePeaks(t, name, s)
						runs++
					}
				}
			}
		}
	}
	if runs < 50 {
		t.Fatalf("only %d feasible schedules compared", runs)
	}
}

// TestMemoryPeaksMatchesReferenceOnRandomPlacements feeds arbitrary
// placements (valid or not) whose times sit on a coarse grid, a third of
// them moved by up to 1.5·Eps: ties are frequent and the Eps comparator is
// intransitive on them, so only the same sort algorithm as the oracle's
// reproduces its order.
func TestMemoryPeaksMatchesReferenceOnRandomPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	jitter := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return v + (rng.Float64()-0.5)*3*Eps
		}
		return v
	}
	for _, n := range []int{3, 12, 60, 400, 2000} {
		for trial := 0; trial < 20; trial++ {
			k := 1 + rng.Intn(4)
			in := randomInstance(rng.Int63(), n, k)
			pools := make([]Pool, k)
			for j := range pools {
				pools[j] = Pool{Procs: 1 + rng.Intn(2), Capacity: platform.Unlimited}
			}
			p := NewPlatform(pools...)
			s := NewSchedule(in, p)
			for i := range s.Tasks {
				s.Tasks[i] = Placement{Start: jitter(float64(rng.Intn(n/2 + 2))), Proc: rng.Intn(p.TotalProcs())}
			}
			for e := range s.CommStart {
				s.CommStart[e] = jitter(float64(rng.Intn(n/2 + 2)))
			}
			samePeaks(t, "random placement", s)
		}
	}
}

// TestMemoryPeaksWithinEpsTies pins a release and an acquisition less than
// Eps apart on one pool: they count as simultaneous, the release goes
// first, and the two files never add up.
func TestMemoryPeaksWithinEpsTies(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	c := g.AddTask("c", 1, 1)
	d := g.AddTask("d", 1, 1)
	g.MustAddEdge(a, b, 3, 0) // pool 1, [0, 2)
	g.MustAddEdge(c, d, 5, 0) // pool 1, [cStart, 4)
	in := NewInstance(g, [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	p := NewPlatform(Pool{Procs: 1, Capacity: platform.Unlimited}, Pool{Procs: 2, Capacity: platform.Unlimited}, Pool{Procs: 1, Capacity: platform.Unlimited})
	for _, tc := range []struct {
		cStart float64
		want   int64
	}{{2 - Eps/2, 5}, {2 + Eps/2, 5}, {2, 5}, {2 - 4*Eps, 8}} {
		s := NewSchedule(in, p)
		s.Tasks[a] = Placement{Start: 0, Proc: 1}
		s.Tasks[b] = Placement{Start: 1, Proc: 1}
		s.Tasks[c] = Placement{Start: tc.cStart, Proc: 2}
		s.Tasks[d] = Placement{Start: 3, Proc: 2}
		samePeaks(t, "eps tie", s)
		if got := s.MemoryPeaks(); got[0] != 0 || got[1] != tc.want || got[2] != 0 {
			t.Fatalf("c at %v: peaks %v, want [0 %d 0]", tc.cStart, got, tc.want)
		}
	}
}
