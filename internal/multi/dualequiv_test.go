package multi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/platform"
)

// Equivalence and incremental-state checks on the paper's dual model:
// random blue/red DAGs lifted to 2-pool instances. (The incremental-vs-
// reference schedule equivalence on random k-column matrices, for every pool
// count, is TestGoldenEquivalenceKPool.)

// readyByScan re-derives Ready(id) the naive way, ignoring the maintained
// in-degree counters.
func (st *Partial) readyByScan(id dag.TaskID) bool {
	if st.assigned[id] {
		return false
	}
	for _, e := range st.g.In(id) {
		if !st.assigned[st.g.Edge(e).From] {
			return false
		}
	}
	return true
}

// makespanByScan re-derives MakespanSoFar the naive way, ignoring the
// running max.
func (st *Partial) makespanByScan() float64 {
	ms := 0.0
	for i, done := range st.assigned {
		if done && st.finish[i] > ms {
			ms = st.finish[i]
		}
	}
	return ms
}

// TestGoldenEquivalenceRandomSweep sweeps daggen DAGs of varied shapes
// and memory pressures (from comfortable to infeasible), calibrated on the
// unbounded run's peak, and asserts MemHEFT and MemMinMin match their naive
// references exactly on every one.
func TestGoldenEquivalenceRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	sizes := []int{5, 12, 30, 60}
	alphas := []float64{0.3, 0.5, 0.8, 1.0}
	runs := 0
	for trial := 0; trial < 12; trial++ {
		params := daggen.SmallParams()
		params.Size = sizes[trial%len(sizes)]
		seed := rng.Int63()
		g, err := daggen.Generate(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := FromDual(g)
		p := platform.New(1+rng.Intn(3), 1+rng.Intn(3), platform.Unlimited, platform.Unlimited)
		// Peak memory of the unbounded run calibrates the pressure.
		s, err := MemHEFT(tctx, in, FromDualPlatform(p), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var peak int64
		for _, m := range s.MemoryPeaks() {
			if m > peak {
				peak = m
			}
		}
		// One cache set per graph, shared across the whole pressure
		// sweep — the exact configuration a session runs with.
		caches := NewCaches()
		for _, alpha := range alphas {
			bound := int64(alpha * float64(peak))
			bp := FromDualPlatform(p.WithBounds(bound, bound))
			checkPairCached(t, "memheft", MemHEFT, MemHEFTReference, in, bp, seed, caches)
			checkPairCached(t, "memminmin", MemMinMin, MemMinMinReference, in, bp, seed, caches)
			runs += 2
		}
	}
	if runs == 0 {
		t.Fatal("sweep ran no instances")
	}
}

// TestGoldenEquivalenceLowMemoryFailures drives both schedulers into the
// ErrMemoryBound path on a dual graph and checks the failure reports match
// the references.
func TestGoldenEquivalenceLowMemoryFailures(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	in := FromDual(g)
	p := FromDualPlatform(platform.New(2, 2, 1, 1)) // far below any peak: must fail identically
	hFailed := checkPairCached(t, "memheft-fail", MemHEFT, MemHEFTReference, in, p, 5, nil)
	mFailed := checkPairCached(t, "memminmin-fail", MemMinMin, MemMinMinReference, in, p, 5, nil)
	if !hFailed || !mFailed {
		t.Fatal("expected both schedulers to hit the memory bound")
	}
}

// TestGoldenEquivalenceInsertionPolicy checks the insertion-based variant
// against a reference run that bypasses the candidate memo and the
// incremental list scan, exercising the shared static-part and commit
// machinery under the gap-filling policy.
func TestGoldenEquivalenceInsertionPolicy(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	in := FromDual(g)
	p := FromDualPlatform(platform.New(2, 2, 400, 400))
	got, err := MemHEFTInsertion(tctx, in, p, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: same algorithm, every candidate recomputed, readiness
	// by scan, mid-slice deletes.
	remaining, err := PriorityList(nil, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := NewPartial(in, p)
	st.ins = newInsertionState(p.TotalProcs())
	for len(remaining) > 0 {
		placed := false
		for index, id := range remaining {
			if !st.readyByScan(id) {
				continue
			}
			c := Candidate{Task: id, Pool: -1, EST: inf, EFT: inf}
			for k := 0; k < p.NumPools(); k++ {
				if ck := st.evaluate(id, k); ck.EFT < c.EFT {
					c = ck
				}
			}
			if !c.Feasible() {
				continue
			}
			st.Commit(c)
			remaining = append(remaining[:index], remaining[index+1:]...)
			placed = true
			break
		}
		if !placed {
			t.Fatal("reference insertion run stuck")
		}
	}
	sameSchedule(t, "insertion", got, st.Schedule())
}

// TestIncrementalStateMatchesScans replays a schedule commit by commit and
// cross-checks every piece of incremental bookkeeping (ready list, ready
// predicate, running makespan) against its naive scan on each step.
func TestIncrementalStateMatchesScans(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 17)
	if err != nil {
		t.Fatal(err)
	}
	st := NewPartial(FromDual(g), FromDualPlatform(platform.New(2, 1, platform.Unlimited, platform.Unlimited)))
	for !st.Done() {
		var want []dag.TaskID
		for i := 0; i < g.NumTasks(); i++ {
			if st.readyByScan(dag.TaskID(i)) {
				want = append(want, dag.TaskID(i))
			}
		}
		got := st.ReadyTasks()
		if len(got) != len(want) {
			t.Fatalf("ready list %v, scan says %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ready list %v, scan says %v", got, want)
			}
		}
		for i := 0; i < g.NumTasks(); i++ {
			id := dag.TaskID(i)
			if st.Ready(id) != st.readyByScan(id) {
				t.Fatalf("Ready(%d) = %v, scan says %v", id, st.Ready(id), st.readyByScan(id))
			}
		}
		if ms, scan := st.MakespanSoFar(), st.makespanByScan(); ms != scan {
			t.Fatalf("MakespanSoFar = %g, scan says %g", ms, scan)
		}
		// Commit the min-EFT candidate, as MemMinMin would.
		best := Candidate{EFT: math.Inf(1)}
		for _, id := range got {
			if c := st.Best(id); c.EFT < best.EFT {
				best = c
			}
		}
		if !best.Feasible() {
			t.Fatal("unbounded run blocked")
		}
		st.Commit(best)
	}
	if ms, scan := st.MakespanSoFar(), st.makespanByScan(); ms != scan {
		t.Fatalf("final MakespanSoFar = %g, scan says %g", ms, scan)
	}
}

// TestCloneIntoIndependence verifies that a pooled CloneInto target is a
// faithful independent copy: committing to the clone leaves the original
// untouched and vice versa, including the memoization state.
func TestCloneIntoIndependence(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 23)
	if err != nil {
		t.Fatal(err)
	}
	in := FromDual(g)
	p := FromDualPlatform(platform.New(2, 2, 300, 300))
	st := NewPartial(in, p)
	// Warm the caches and commit a couple of tasks.
	for k := 0; k < 2; k++ {
		ready := st.ReadyTasks()
		if len(ready) == 0 {
			t.Fatal("no ready tasks")
		}
		c := st.Best(ready[0])
		if !c.Feasible() {
			t.Fatal("blocked")
		}
		st.Commit(c)
	}
	clone := st.CloneInto(nil)
	dirty := NewPartial(in, p) // pooled target with unrelated state
	clone2 := st.CloneInto(dirty)
	if clone2 != dirty {
		t.Fatal("CloneInto did not reuse the target")
	}

	msBefore := st.MakespanSoFar()
	readyBefore := append([]dag.TaskID(nil), st.ReadyTasks()...)
	for _, c := range []*Partial{clone, clone2} {
		ready := c.ReadyTasks()
		if len(ready) != len(readyBefore) {
			t.Fatalf("clone ready %v, want %v", ready, readyBefore)
		}
		cand := c.Best(ready[0])
		if !cand.Feasible() {
			t.Fatal("clone blocked")
		}
		c.Commit(cand)
	}
	if st.MakespanSoFar() != msBefore {
		t.Fatal("committing to a clone changed the original's makespan")
	}
	got := st.ReadyTasks()
	for i := range readyBefore {
		if got[i] != readyBefore[i] {
			t.Fatalf("committing to a clone changed the original's ready list: %v, want %v", got, readyBefore)
		}
	}
	// The original still completes exactly like a clone taken now and
	// completed independently (both by MemMinMin's min-EFT rule).
	finish := func(st *Partial) *Schedule {
		for !st.Done() {
			best := Candidate{EFT: math.Inf(1)}
			for _, id := range st.ReadyTasks() {
				if c := st.Best(id); c.EFT < best.EFT {
					best = c
				}
			}
			if !best.Feasible() {
				t.Fatal("blocked while finishing")
			}
			st.Commit(best)
		}
		return st.Schedule()
	}
	twin := st.Clone()
	sameSchedule(t, "post-clone", finish(st), finish(twin))
	// And the engine is unaffected by any of it.
	want, err := MemMinMinReference(tctx, in, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := MemMinMin(tctx, in, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "post-clone engine", got2, want)
}
