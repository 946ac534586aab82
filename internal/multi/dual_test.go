package multi

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/linalg"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// The paper's scenarios on its own blue/red model: every heuristic runs on
// the lifted 2-pool instance of a dual graph (FromDual, FromDualPlatform)
// and its schedule is projected back onto the dual model, exactly as a dual
// memsched.Session does, so the checks below read in the paper's terms
// (MemoryOf, blue/red peaks) while exercising this package's engine.

// dualFunc is a heuristic seen through the dual model.
type dualFunc func(ctx context.Context, g *dag.Graph, p platform.Platform, opt Options) (*schedule.Schedule, error)

// onDual lifts f to the dual model. A failed run's partial schedule is
// projected too, as the engine returns it.
func onDual(f Func) dualFunc {
	return func(ctx context.Context, g *dag.Graph, p platform.Platform, opt Options) (*schedule.Schedule, error) {
		ms, err := f(ctx, FromDual(g), FromDualPlatform(p), opt)
		if ms == nil {
			return nil, err
		}
		return projectDual(g, ms), err
	}
}

// projectDual views a 2-pool schedule of g as a dual one (pool 0 blue,
// pool 1 red); the placements are shared.
func projectDual(g *dag.Graph, ms *Schedule) *schedule.Schedule {
	dp, _ := ms.Platform.Dual()
	return &schedule.Schedule{Graph: g, Platform: dp, Tasks: ms.Tasks, CommStart: ms.CommStart}
}

var (
	dualHEFT             = onDual(HEFT)
	dualMinMin           = onDual(MinMin)
	dualMemHEFT          = onDual(MemHEFT)
	dualMemMinMin        = onDual(MemMinMin)
	dualMemHEFTInsertion = onDual(MemHEFTInsertion)

	dualMemHEFTReference   = onDual(MemHEFTReference)
	dualMemMinMinReference = onDual(MemMinMinReference)
)

// dualAlgorithms is the scheduler registry on the dual model.
var dualAlgorithms = map[string]dualFunc{
	"heft":              dualHEFT,
	"minmin":            dualMinMin,
	"memheft":           dualMemHEFT,
	"memminmin":         dualMemMinMin,
	"memheft-insertion": dualMemHEFTInsertion,
}

func mustSchedule(t *testing.T, f dualFunc, g *dag.Graph, p platform.Platform, seed int64) *schedule.Schedule {
	t.Helper()
	s, err := f(tctx, g, p, Options{Seed: seed})
	if err != nil {
		t.Fatalf("scheduling failed: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return s
}

func TestPriorityListPaperExample(t *testing.T) {
	g := dag.PaperExample()
	list, err := PriorityList(nil, FromDual(g), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks: T1=8.5, T3=6, T2=3.5, T4=1 (no ties).
	want := []dag.TaskID{0, 2, 1, 3}
	for i, id := range list {
		if id != want[i] {
			t.Fatalf("priority list = %v, want %v", list, want)
		}
	}
}

func TestPriorityListTieBreakDependsOnSeed(t *testing.T) {
	// Ten identical independent tasks: order is purely the tie-break.
	g := dag.New()
	for i := 0; i < 10; i++ {
		g.AddTask("", 1, 1)
	}
	a, _ := PriorityList(nil, FromDual(g), 1)
	b, _ := PriorityList(nil, FromDual(g), 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different lists")
		}
	}
	c, _ := PriorityList(nil, FromDual(g), 99)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical tie-breaks (possible but wildly unlikely)")
	}
}

func TestHEFTOnPaperExample(t *testing.T) {
	g := dag.PaperExample()
	p := platform.New(1, 1, 1, 1) // bounds ignored by HEFT
	s := mustSchedule(t, dualHEFT, g, p, 1)
	// HEFT trace: T1 -> red (EFT 1 vs 3). T3 -> red (EFT 1+3=4 vs
	// blue 1+1+6=8). T2 -> blue (EFT 2+2=4 vs red 4+2=6). T4: blue
	// would start after comm(3,4): max(4, 4+1)=5, EFT 6; red after
	// comm(2,4): max(4+1, 4)=5, EFT 6. Tie -> blue. Makespan 6.
	if ms := s.Makespan(); ms != 6 {
		t.Fatalf("HEFT makespan = %g, want 6", ms)
	}
}

func TestMinMinOnPaperExample(t *testing.T) {
	g := dag.PaperExample()
	p := platform.New(1, 1, 1, 1)
	s := mustSchedule(t, dualMinMin, g, p, 1)
	if ms := s.Makespan(); ms > 7 {
		t.Fatalf("MinMin makespan = %g, want <= 7", ms)
	}
}

func TestMemHEFTRespectsMemoryBounds(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{4, 5, 6, 10} {
		p := platform.New(1, 1, m, m)
		s, err := dualMemHEFT(tctx, g, p, Options{})
		if err != nil {
			continue // infeasible for the heuristic: acceptable here
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("M=%d: invalid schedule: %v", m, err)
		}
		blue, red := s.MemoryPeaks()
		if blue > m || red > m {
			t.Fatalf("M=%d: peaks (%d,%d) exceed bound", m, blue, red)
		}
	}
}

func TestMemMinMinRespectsMemoryBounds(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{4, 5, 6, 10} {
		p := platform.New(1, 1, m, m)
		s, err := dualMemMinMin(tctx, g, p, Options{})
		if err != nil {
			continue
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("M=%d: invalid schedule: %v", m, err)
		}
		blue, red := s.MemoryPeaks()
		if blue > m || red > m {
			t.Fatalf("M=%d: peaks (%d,%d) exceed bound", m, blue, red)
		}
	}
}

func TestMemHEFTEqualsHEFTWithPlentifulMemory(t *testing.T) {
	// §6.2.1: if both bounds exceed HEFT's peaks, MemHEFT takes exactly
	// the same decisions as HEFT.
	g := dag.PaperExample()
	p := platform.New(1, 1, 0, 0)
	h := mustSchedule(t, dualHEFT, g, p, 7)
	hb, hr := h.MemoryPeaks()
	mh := mustSchedule(t, dualMemHEFT, g, p.WithBounds(hb, hr), 7)
	for i := 0; i < g.NumTasks(); i++ {
		if h.Tasks[i] != mh.Tasks[i] {
			t.Fatalf("task %d placed differently: %+v vs %+v", i, h.Tasks[i], mh.Tasks[i])
		}
	}
}

func TestMemHEFTFailsWhenMemoryTooSmall(t *testing.T) {
	g := dag.PaperExample()
	// Even executing a single task needs its files in memory; T3 needs 4.
	p := platform.New(1, 1, 2, 2)
	_, err := dualMemHEFT(tctx, g, p, Options{})
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v, want ErrMemoryBound", err)
	}
	_, err = dualMemMinMin(tctx, g, p, Options{})
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v, want ErrMemoryBound", err)
	}
}

func TestHeuristicsOnChainSingleMemory(t *testing.T) {
	// A chain with equal times on a 1+0 platform: the makespan is just
	// the sum of the works, and memory needs are one file in flight.
	g := dag.Chain(6, 2, 2, 3, 1)
	p := platform.New(1, 0, 6, 0)
	for name, f := range dualAlgorithms {
		if name == "heft" || name == "minmin" {
			continue // oblivious ones ignore bounds anyway
		}
		s := mustSchedule(t, f, g, p, 1)
		if ms := s.Makespan(); ms != 12 {
			t.Fatalf("%s: makespan = %g, want 12", name, ms)
		}
	}
}

func TestChainNeedsTwoFilesDuringInnerTasks(t *testing.T) {
	// Inner chain tasks hold input+output (2 files of size 3): bound 5
	// must fail, bound 6 must succeed.
	g := dag.Chain(4, 1, 1, 3, 1)
	if _, err := dualMemHEFT(tctx, g, platform.New(1, 0, 5, 0), Options{}); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("bound 5 accepted: %v", err)
	}
	s, err := dualMemHEFT(tctx, g, platform.New(1, 0, 6, 0), Options{})
	if err != nil {
		t.Fatalf("bound 6 rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinMemoryForcesSerialisation(t *testing.T) {
	// width 6, unit times, files of size 2. The fork holds 12 units of
	// output; executing it needs 12. Give exactly 12 so the middle tasks
	// can only run once predecessors' files are consumed.
	g := dag.ForkJoin(6, 1, 1, 2, 1)
	p := platform.New(2, 2, 12, 12)
	for _, f := range []dualFunc{dualMemHEFT, dualMemMinMin} {
		s, err := f(tctx, g, p, Options{Seed: 3})
		if err != nil {
			t.Fatalf("forkjoin infeasible: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemoryAwareSucceedsAtTotalFilesBound(t *testing.T) {
	// With M = sum of all file sizes no memory check can ever bind (the
	// files of the task under evaluation are not yet accounted, so
	// used + need <= TotalFiles always), hence the memory-aware runs
	// must succeed and make exactly the oblivious decisions.
	g := randomDAG(42, 25)
	p := platform.New(2, 2, 0, 0)
	h := mustSchedule(t, dualHEFT, g, p, 5)
	total := g.TotalFiles()
	mh := mustSchedule(t, dualMemHEFT, g, p.WithBounds(total, total), 5)
	for i := 0; i < g.NumTasks(); i++ {
		if h.Tasks[i] != mh.Tasks[i] {
			t.Fatalf("task %d differs at TotalFiles bound", i)
		}
	}
}

func TestZeroCostBroadcastTasks(t *testing.T) {
	// A source broadcasting through a chain of fictitious tasks, as the
	// linear-algebra DAGs do.
	g := dag.New()
	src := g.AddTask("src", 2, 1)
	b1 := g.AddTask("b1", 0, 0)
	b2 := g.AddTask("b2", 0, 0)
	c1 := g.AddTask("c1", 3, 1)
	c2 := g.AddTask("c2", 3, 1)
	g.MustAddEdge(src, b1, 1, 1)
	g.MustAddEdge(b1, b2, 1, 1)
	g.MustAddEdge(b1, c1, 1, 1)
	g.MustAddEdge(b2, c2, 1, 1)
	p := platform.New(1, 1, 10, 10)
	for name, f := range dualAlgorithms {
		s, err := f(tctx, g, p, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"heft", "minmin", "memheft", "memminmin"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestSingleTaskGraph(t *testing.T) {
	g := dag.New()
	g.AddTask("only", 5, 2)
	p := platform.New(1, 1, 0, 0) // no files: zero memory suffices
	s := mustSchedule(t, dualMemHEFT, g, p, 1)
	if s.Makespan() != 2 { // red is faster
		t.Fatalf("makespan = %g, want 2", s.Makespan())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := dag.New()
	p := platform.New(1, 1, 1, 1)
	s, err := dualMemHEFT(tctx, g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 0 {
		t.Fatal("empty graph has nonzero makespan")
	}
	if _, err := dualMemMinMin(tctx, g, p, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRedOnlyPlatform(t *testing.T) {
	g := dag.PaperExample()
	p := platform.New(0, 1, 0, 20)
	s := mustSchedule(t, dualMemMinMin, g, p, 1)
	// Serial on red: 1+2+3+1 = 7.
	if ms := s.Makespan(); ms != 7 {
		t.Fatalf("makespan = %g, want 7", ms)
	}
	for i := range s.Tasks {
		if s.MemoryOf(dag.TaskID(i)) != platform.Red {
			t.Fatal("task not on red on red-only platform")
		}
	}
}

func TestInvalidPlatformRejected(t *testing.T) {
	g := dag.PaperExample()
	if _, err := dualMemHEFT(tctx, g, platform.New(0, 0, 1, 1), Options{}); err == nil {
		t.Fatal("no-processor platform accepted")
	}
	if _, err := dualMemMinMin(tctx, g, platform.New(0, 0, 1, 1), Options{}); err == nil {
		t.Fatal("no-processor platform accepted")
	}
}

func TestPropertyHeuristicsProduceValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 20)
		p := platform.New(2, 2, platform.Unlimited, platform.Unlimited)
		for _, fn := range []dualFunc{dualMemHEFT, dualMemMinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				return false
			}
			if err := s.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBoundedRunsRespectBounds(t *testing.T) {
	f := func(seed int64, rawBound uint16) bool {
		g := randomDAG(seed, 18)
		bound := int64(rawBound%200) + 1
		p := platform.New(2, 2, bound, bound)
		for _, fn := range []dualFunc{dualMemHEFT, dualMemMinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				continue // infeasible is fine; invalid is not
			}
			if err := s.Validate(); err != nil {
				return false
			}
			blue, red := s.MemoryPeaks()
			if blue > bound || red > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMakespanAtLeastCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 16)
		cp, err := g.CriticalPathLength()
		if err != nil {
			return false
		}
		p := platform.New(2, 2, platform.Unlimited, platform.Unlimited)
		for _, fn := range []dualFunc{dualHEFT, dualMinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				return false
			}
			if s.Makespan() < cp-schedule.Eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTotalFilesBoundMatchesOblivious(t *testing.T) {
	// M = TotalFiles can never bind, so the memory-aware heuristics must
	// succeed and reproduce the oblivious placements exactly. (Bounds at
	// the *measured* HEFT peaks are not guaranteed to suffice: the
	// heuristics' internal accounting is conservative — uniform
	// communication windows and an "everywhere after t" fit rule — so
	// it can exceed the true model usage of the emitted schedule.)
	f := func(seed int64) bool {
		g := randomDAG(seed, 15)
		total := g.TotalFiles()
		p := platform.New(1, 1, total, total)
		pairs := [][2]dualFunc{{dualHEFT, dualMemHEFT}, {dualMinMin, dualMemMinMin}}
		for _, pair := range pairs {
			a, errA := pair[0](tctx, g, p, Options{Seed: seed})
			b, errB := pair[1](tctx, g, p, Options{Seed: seed})
			if errA != nil || errB != nil {
				return false
			}
			for i := 0; i < g.NumTasks(); i++ {
				if a.Tasks[i] != b.Tasks[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConservativeCommWindowNeverUnderestimates(t *testing.T) {
	// Two cross parents with different comm times: the heuristic reserves
	// the conservative max window; the emitted per-edge ALAP comms must
	// still validate and respect bounds.
	g := dag.New()
	a := g.AddTask("a", 1, 10)
	b := g.AddTask("b", 1, 10)
	c := g.AddTask("c", 10, 1) // prefers red; parents prefer blue
	g.MustAddEdge(a, c, 3, 5)
	g.MustAddEdge(b, c, 4, 1)
	p := platform.New(2, 1, 20, 20)
	s := mustSchedule(t, dualMemMinMin, g, p, 1)
	if s.MemoryOf(c) != platform.Red {
		t.Skip("heuristic placed c on blue; conservative window untested here")
	}
	ea, _ := g.EdgeBetween(a, c)
	eb, _ := g.EdgeBetween(b, c)
	startC := s.Tasks[c].Start
	if got := s.CommStart[ea.ID]; math.Abs(got-(startC-5)) > 1e-9 {
		t.Fatalf("comm a->c starts at %g, want %g", got, startC-5)
	}
	if got := s.CommStart[eb.ID]; math.Abs(got-(startC-1)) > 1e-9 {
		t.Fatalf("comm b->c starts at %g, want %g", got, startC-1)
	}
}

// TestMemHEFTSkipsBlockedHighPriorityTask verifies the index-scan of
// Algorithm 1: when the highest-rank ready task does not fit in memory,
// MemHEFT schedules a lower-rank task that does, instead of failing.
func TestMemHEFTSkipsBlockedHighPriorityTask(t *testing.T) {
	g := dag.New()
	// big: huge rank (long chain below it), needs 8 units of memory.
	big := g.AddTask("big", 10, 10)
	bigChild := g.AddTask("bigchild", 10, 10)
	g.MustAddEdge(big, bigChild, 8, 1)
	// small: tiny rank, needs 2 units.
	small := g.AddTask("small", 1, 1)
	smallChild := g.AddTask("smallchild", 1, 1)
	g.MustAddEdge(small, smallChild, 2, 1)

	ranks, err := g.UpwardRanks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[big] <= ranks[small] {
		t.Fatalf("fixture broken: rank(big)=%g <= rank(small)=%g", ranks[big], ranks[small])
	}

	// Memory 4: big (needs 8) never fits, small (needs 2) does.
	p := platform.New(1, 1, 4, 4)
	s, err := dualMemHEFT(tctx, g, p, Options{Seed: 1})
	if err == nil {
		t.Fatal("expected failure: big can never fit")
	}
	// The partial schedule must contain small and smallChild.
	if s.Tasks[small].Proc < 0 || s.Tasks[smallChild].Proc < 0 {
		t.Fatal("MemHEFT did not schedule the fitting low-priority tasks before failing")
	}
}

// TestMemHEFTListScanOrder pins the restart-from-head behaviour: after the
// low-priority task releases memory, the high-priority one is picked again.
func TestMemHEFTListScanOrder(t *testing.T) {
	g := dag.New()
	// a and b are independent; a has higher rank but needs more memory
	// than is initially free; b consumes little and its completion frees
	// nothing — but scheduling order must still be b first, then a
	// becomes feasible only if memory allows. Construct so that both fit
	// sequentially within bound 6: a needs 5 (outputs), b needs 1.
	a := g.AddTask("a", 4, 4)
	aChild := g.AddTask("achild", 1, 1)
	g.MustAddEdge(a, aChild, 5, 1)
	b := g.AddTask("b", 1, 1)
	bChild := g.AddTask("bchild", 1, 1)
	g.MustAddEdge(b, bChild, 1, 1)

	p := platform.New(2, 2, 6, 6)
	s, err := dualMemHEFT(tctx, g, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// All four scheduled; a (rank max) goes first at t=0.
	if s.Tasks[a].Start != 0 {
		t.Fatalf("a starts at %g", s.Tasks[a].Start)
	}
}

func TestSameSeedIsDeterministic(t *testing.T) {
	g := randomDAG(99, 24)
	p := platform.New(2, 2, 120, 120)
	for name, fn := range dualAlgorithms {
		s1, err1 := fn(tctx, g, p, Options{Seed: 5})
		s2, err2 := fn(tctx, g, p, Options{Seed: 5})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic feasibility", name)
		}
		if err1 != nil {
			continue
		}
		for i := range s1.Tasks {
			if s1.Tasks[i] != s2.Tasks[i] {
				t.Fatalf("%s: nondeterministic placement of task %d", name, i)
			}
		}
	}
}

func TestCommunicationsAreALAP(t *testing.T) {
	// Every cross edge's communication must end exactly at the consumer's
	// start (as-late-as-possible placement).
	g := randomDAG(7, 20)
	p := platform.New(1, 1, platform.Unlimited, platform.Unlimited)
	s, err := dualMemHEFT(tctx, g, p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !s.IsCross(dag.EdgeID(e)) {
			continue
		}
		edge := g.Edge(dag.EdgeID(e))
		end := s.CommStart[e] + edge.Comm
		if math.Abs(end-s.Tasks[edge.To].Start) > 1e-9 {
			t.Fatalf("comm %d->%d ends at %g, consumer starts at %g",
				edge.From, edge.To, end, s.Tasks[edge.To].Start)
		}
	}
}

func TestPartialCloneIsDeepEnough(t *testing.T) {
	g := dag.PaperExample()
	p := platform.New(1, 1, 10, 10)
	st := NewPartial(FromDual(g), FromDualPlatform(p))
	c1 := st.Evaluate(0, int(platform.Red))
	if !c1.Feasible() {
		t.Fatal("T1 should fit")
	}
	clone := st.Clone()
	clone.Commit(c1)
	if st.Assigned(0) {
		t.Fatal("commit on clone mutated original assignment")
	}
	if st.Schedule().Tasks[0].Proc != -1 {
		t.Fatal("commit on clone mutated original schedule")
	}
	// Original can still commit independently.
	st.Commit(st.Evaluate(0, int(platform.Blue)))
	if st.MakespanSoFar() != 3 { // blue time of T1
		t.Fatalf("original makespan %g", st.MakespanSoFar())
	}
	if clone.MakespanSoFar() != 1 { // red time of T1
		t.Fatalf("clone makespan %g", clone.MakespanSoFar())
	}
}

func TestPartialReadyTasksEvolution(t *testing.T) {
	g := dag.PaperExample()
	st := NewPartial(FromDual(g), FromDualPlatform(platform.New(1, 1, 100, 100)))
	r := st.ReadyTasks()
	if len(r) != 1 || r[0] != 0 {
		t.Fatalf("initial ready = %v", r)
	}
	st.Commit(st.Evaluate(0, int(platform.Red)))
	r = st.ReadyTasks()
	if len(r) != 2 || r[0] != 1 || r[1] != 2 {
		t.Fatalf("ready after T1 = %v", r)
	}
	if st.Done() {
		t.Fatal("not done yet")
	}
}

// TestStressLinalgAllHeuristicsValidate runs every heuristic over a grid of
// factorisation sizes and memory bounds and validates every produced
// schedule — an integration sweep across the engine and the dual
// schedule validator.
func TestStressLinalgAllHeuristicsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for _, n := range []int{3, 5} {
		for build, factorise := range map[string]func(linalg.Config) (*dag.Graph, error){"lu": linalg.LU, "cholesky": linalg.Cholesky} {
			g, err := factorise(linalg.DefaultConfig(n))
			if err != nil {
				t.Fatal(err)
			}
			unb := platform.New(3, 2, platform.Unlimited, platform.Unlimited)
			ref, err := dualHEFT(tctx, g, unb, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			blue, red := ref.MemoryPeaks()
			peak := blue
			if red > peak {
				peak = red
			}
			for _, frac := range []int64{10, 7, 5, 3} {
				bound := peak * frac / 10
				p := platform.New(3, 2, bound, bound)
				for name, fn := range dualAlgorithms {
					s, err := fn(tctx, g, p, Options{Seed: 2})
					if err != nil {
						continue
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("%s %s n=%d frac=%d: %v", build, name, n, frac, err)
					}
				}
			}
		}
	}
}
