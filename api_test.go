package memsched

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g := NewGraph()
	a := g.AddTask("prepare", 3, 1)
	b := g.AddTask("solve", 6, 3)
	g.MustAddEdge(a, b, 2, 1)

	p := NewDualPlatform(2, 1, 8, 4)
	s := mustSchedule(t, g, p)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() <= 0 {
		t.Fatal("nonpositive makespan")
	}
}

func TestFacadeSchedulersRegistered(t *testing.T) {
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(1, 1, 10, 10)
	for _, name := range []string{"heft", "minmin", "memheft", "memminmin"} {
		if _, err := sess.Schedule(context.Background(), p, WithScheduler(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := sess.Schedule(context.Background(), p, WithScheduler("nope")); err == nil {
		t.Fatal("bad name accepted")
	}
}

// mustSchedule runs one Session.Schedule call on a fresh session of g and
// returns its dual schedule.
func mustSchedule(t *testing.T, g *Graph, p Platform, opts ...ScheduleOption) *Schedule {
	t.Helper()
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Schedule(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestFacadeErrMemoryBound(t *testing.T) {
	g := PaperExample()
	p := NewDualPlatform(1, 1, 2, 2)
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Schedule(context.Background(), p, WithScheduler("memminmin"))
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeGraphJSONRoundTrip(t *testing.T) {
	g := PaperExample()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 4 || back.NumEdges() != 4 {
		t.Fatal("round trip lost structure")
	}
}

func TestFacadeOptimalOnPaperExample(t *testing.T) {
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimal(context.Background(), NewDualPlatform(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Schedule; !res.Stats.Proven || s == nil || s.Makespan() != 7 {
		t.Fatalf("proven=%v s=%v", res.Stats.Proven, s)
	}
	// Infeasible case: nil schedule with proven=true.
	res, err = sess.Optimal(context.Background(), NewDualPlatform(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil || !res.Stats.Proven {
		t.Fatalf("infeasible case: s=%v proven=%v", res.Schedule, res.Stats.Proven)
	}
}

func TestFacadeLowerBound(t *testing.T) {
	lb, err := LowerBound(PaperExample(), NewDualPlatform(1, 1, 10, 10))
	if err != nil || lb != 5 {
		t.Fatalf("lb=%g err=%v", lb, err)
	}
}

func TestFacadeGenerators(t *testing.T) {
	g, err := GenerateRandom(SmallRandParams(), 1)
	if err != nil || g.NumTasks() != 30 {
		t.Fatalf("random: %v", err)
	}
	if LargeRandParams().Size != 1000 {
		t.Fatal("large params wrong")
	}
	lu, err := LUGraph(DefaultLinalgConfig(3))
	if err != nil || lu.NumTasks() == 0 {
		t.Fatalf("lu: %v", err)
	}
	ch, err := CholeskyGraph(DefaultLinalgConfig(3))
	if err != nil || ch.NumTasks() == 0 {
		t.Fatalf("cholesky: %v", err)
	}
}

func TestFacadeMemoryConstants(t *testing.T) {
	if Blue.String() != "blue" || Red.String() != "red" {
		t.Fatal("memory constants wrong")
	}
	p := NewDualPlatform(1, 1, Unlimited, Unlimited)
	if !strings.Contains(p.String(), "inf") {
		t.Fatal("Unlimited not formatted as inf")
	}
}

func TestFacadeMultiPool(t *testing.T) {
	ctx := context.Background()
	g := PaperExample()
	inst := DualInstance(g)
	sess, err := NewSession(g, WithPoolTimes(inst.Times))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(Pool{Procs: 1, Capacity: 10}, Pool{Procs: 1, Capacity: 10})
	for _, name := range []string{"memheft", "memminmin"} {
		res, err := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Pools.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(res.Pools.MemoryPeaks()) != 2 {
			t.Fatal("peak count")
		}
	}
	// Differential against the dual session of the same graph.
	dual := mustSchedule(t, g, NewDualPlatform(1, 1, 10, 10), WithSeed(1))
	ms, err := sess.Schedule(ctx, p, WithScheduler("memheft"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if dual.Makespan() != ms.Pools.Makespan() {
		t.Fatalf("dual %g vs multi %g", dual.Makespan(), ms.Pools.Makespan())
	}
	// Tiny memories must error with the sentinel.
	tiny := NewPlatform(Pool{Procs: 1, Capacity: 2}, Pool{Procs: 1, Capacity: 2})
	if _, err := sess.Schedule(ctx, tiny, WithScheduler("memheft")); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeEndToEndLU(t *testing.T) {
	// A miniature of the Figure 14 pipeline through the public API only.
	g, err := LUGraph(DefaultLinalgConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	unbounded := NewDualPlatform(12, 3, Unlimited, Unlimited)
	ref := mustSchedule(t, g, unbounded, WithScheduler("heft"), WithSeed(1))
	blue, red := ref.MemoryPeaks()
	peak := blue
	if red > peak {
		peak = red
	}
	tight := NewDualPlatform(12, 3, peak/2, peak/2)
	s := mustSchedule(t, g, tight, WithSeed(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b2, r2 := s.MemoryPeaks()
	if b2 > peak/2 || r2 > peak/2 {
		t.Fatalf("peaks (%d,%d) exceed bound %d", b2, r2, peak/2)
	}
}

func TestFacadeSimulateAndInsertion(t *testing.T) {
	ctx := context.Background()
	g := PaperExample()
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(1, 1, 10, 10)
	for _, pol := range []SimPolicy{SimRankPolicy, SimEFTPolicy} {
		res, err := sess.Simulate(ctx, p, WithPolicy(pol), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Simulate(ctx, NewDualPlatform(1, 1, 2, 2), WithSeed(1)); !errors.Is(err, ErrSimStuck) {
		t.Fatalf("err = %v", err)
	}
	s := mustSchedule(t, g, p, WithInsertion(), WithSeed(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
