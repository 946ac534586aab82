package schedule

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

// memoryPeaksReference is the original MemoryPeaks: expand residencies,
// append both events of each interval per memory, sort.Slice with the Eps
// comparator. It is the oracle the single-pass implementation must match
// bit for bit.
func (s *Schedule) memoryPeaksReference() (blue, red int64) {
	type event struct {
		t     float64
		delta int64
	}
	var evs [2][]event
	for _, r := range s.residencies() {
		evs[r.mem] = append(evs[r.mem], event{r.from, r.size}, event{r.to, -r.size})
	}
	peaks := [2]int64{}
	for m := range evs {
		sort.Slice(evs[m], func(i, j int) bool {
			ti, tj := evs[m][i].t, evs[m][j].t
			if math.Abs(ti-tj) > Eps {
				return ti < tj
			}
			return evs[m][i].delta < evs[m][j].delta // releases before acquisitions
		})
		var cur int64
		for _, e := range evs[m] {
			cur += e.delta
			if cur > peaks[m] {
				peaks[m] = cur
			}
		}
	}
	return peaks[0], peaks[1]
}

// randomSchedule places a random DAG on random processors at random start
// times, valid or not: MemoryPeaks is a pure function of the placements.
// Times sit on a coarse integer grid so many events tie, and a third of
// them move by up to 1.5·Eps: pairs within Eps compare equal while their
// neighbours do not, so the comparator is intransitive and only the very
// same sort algorithm reproduces the reference order (a stable sort, for
// one, changes peaks here).
func randomSchedule(rng *rand.Rand, n int) *Schedule {
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask("", float64(rng.Intn(4)), float64(rng.Intn(4)))
	}
	for dst := 1; dst < n; dst++ {
		for k := rng.Intn(4); k > 0; k-- {
			src := rng.Intn(dst)
			if _, dup := g.EdgeBetween(dag.TaskID(src), dag.TaskID(dst)); dup {
				continue
			}
			g.MustAddEdge(dag.TaskID(src), dag.TaskID(dst), int64(rng.Intn(5)), float64(rng.Intn(3)))
		}
	}
	jitter := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return v + (rng.Float64()-0.5)*3*Eps
		}
		return v
	}
	p := platform.New(1+rng.Intn(3), 1+rng.Intn(3), 0, 0).Unbounded()
	s := New(g, p)
	for i := range s.Tasks {
		s.Tasks[i] = TaskPlacement{Start: jitter(float64(rng.Intn(n/2 + 2))), Proc: rng.Intn(p.TotalProcs())}
	}
	for e := range s.CommStart {
		s.CommStart[e] = jitter(float64(rng.Intn(n/2 + 2)))
	}
	return s
}

func TestMemoryPeaksMatchesReferenceOnRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 5, 12, 40, 300, 2000} {
		for trial := 0; trial < 30; trial++ {
			s := randomSchedule(rng, n)
			blue, red := s.MemoryPeaks()
			wantBlue, wantRed := s.memoryPeaksReference()
			if blue != wantBlue || red != wantRed {
				t.Fatalf("n=%d trial %d: peaks (%d,%d), reference (%d,%d)", n, trial, blue, red, wantBlue, wantRed)
			}
		}
	}
}

// TestMemoryPeaksWithinEpsTies pins hand-built schedules whose event times
// differ by less than Eps: a release a hair after an acquisition still
// counts as simultaneous and goes first, so the two files never add up.
func TestMemoryPeaksWithinEpsTies(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	c := g.AddTask("c", 1, 1)
	d := g.AddTask("d", 1, 1)
	g.MustAddEdge(a, b, 3, 0) // blue [0, 2)
	g.MustAddEdge(c, d, 5, 0) // blue [2-Eps/2, 4)
	for _, tc := range []struct {
		name     string
		cStart   float64
		wantBlue int64
	}{
		{"release a hair late", 2 - Eps/2, 5},
		{"release a hair early", 2 + Eps/2, 5},
		{"exact tie", 2, 5},
		{"overlap beyond Eps", 2 - 4*Eps, 8},
	} {
		s := New(g, platform.New(2, 1, 0, 0).Unbounded())
		s.Tasks[a] = TaskPlacement{Start: 0, Proc: 0}
		s.Tasks[b] = TaskPlacement{Start: 1, Proc: 0}
		s.Tasks[c] = TaskPlacement{Start: tc.cStart, Proc: 1}
		s.Tasks[d] = TaskPlacement{Start: 3, Proc: 1}
		blue, red := s.MemoryPeaks()
		wantBlue, wantRed := s.memoryPeaksReference()
		if blue != wantBlue || red != wantRed {
			t.Fatalf("%s: peaks (%d,%d), reference (%d,%d)", tc.name, blue, red, wantBlue, wantRed)
		}
		if blue != tc.wantBlue || red != 0 {
			t.Fatalf("%s: peaks (%d,%d), want (%d,0)", tc.name, blue, red, tc.wantBlue)
		}
	}
}
