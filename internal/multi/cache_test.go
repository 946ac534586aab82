package multi

import (
	"sync"
	"testing"

	"repro/internal/dag"
)

// TestCachesValidateMemoized: the second Validate of the same (instance,
// width) must be served from the memo, and a width change must revalidate.
func TestCachesValidateMemoized(t *testing.T) {
	in := randomInstance(1, 12, 3)
	p := NewPlatform(Pool{1, 50}, Pool{1, 50}, Pool{1, 50})
	c := NewCaches()
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	// A platform with the wrong pool count must still be rejected even
	// though the instance was validated for width 3.
	if err := c.Validate(in, NewPlatform(Pool{1, 50})); err == nil {
		t.Fatal("width mismatch accepted after memoized validation")
	}
	// And width 3 must keep validating after the failed width-1 attempt.
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
}

// TestCachesRanksAndPriorityMemoized: mean ranks are computed once per
// instance and reused across seeds; priority lists are memoized per seed
// and returned as independent copies.
func TestCachesRanksAndPriorityMemoized(t *testing.T) {
	in := randomInstance(2, 20, 2)
	c := NewCaches()
	r1, err := c.MeanRanks(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.MeanRanks(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if &r1[0] != &r2[0] {
		t.Fatal("mean ranks recomputed on the warm call")
	}
	want, err := PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if l1[i] != want[i] {
			t.Fatalf("cached list diverges at %d: %v vs %v", i, l1, want)
		}
	}
	// The returned copy must be caller-mutable without poisoning the memo.
	l1[0], l1[len(l1)-1] = l1[len(l1)-1], l1[0]
	l2, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if l2[i] != want[i] {
			t.Fatalf("memo poisoned by caller mutation at %d", i)
		}
	}
}

// TestCachesRekeyOnGraphGrowth: appending to the graph must invalidate
// statics, ranks and priority memos, and validation results.
func TestCachesRekeyOnGraphGrowth(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	g.MustAddEdge(a, b, 1, 1)
	in := NewInstance(g, [][]float64{{1, 1}, {1, 1}})
	c := NewCaches()
	gs := c.staticsOf(in)
	if len(gs.sources) != 1 {
		t.Fatalf("sources = %v", gs.sources)
	}
	if _, err := c.PriorityList(nil, in, 7); err != nil {
		t.Fatal(err)
	}
	// Grow the graph (and matrix) in place — the dangerous case, same
	// pointers — and expect fresh statics and lists.
	cTask := g.AddTask("c", 1, 1)
	g.MustAddEdge(a, cTask, 1, 1)
	g.AddTask("src", 4, 4)
	in.Times = append(in.Times, []float64{1, 1}, []float64{4, 4})
	gs2 := c.staticsOf(in)
	if gs2 == gs {
		t.Fatal("statics not rekeyed after graph growth")
	}
	if len(gs2.inDegree) != 4 || gs2.outFiles[a] != 2 || len(gs2.sources) != 2 {
		t.Fatalf("stale statics: in-degrees %v, out files %v, sources %v", gs2.inDegree, gs2.outFiles, gs2.sources)
	}
	list, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != g.NumTasks() {
		t.Fatalf("stale priority list after growth: %d tasks listed, graph has %d", len(list), g.NumTasks())
	}
	p := NewPlatform(Pool{1, 10}, Pool{1, 10})
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	bad := dag.New()
	bad.AddTask("x", -1, 1)
	if err := c.Validate(FromDual(bad), p); err == nil {
		t.Fatal("negative processing time not rejected through the cache")
	}
}

// TestCachesPriorityListBounded checks the per-seed memo cannot grow
// without bound: far more seeds than the cap leave at most the cap behind.
func TestCachesPriorityListBounded(t *testing.T) {
	in := randomInstance(3, 10, 2)
	c := NewCaches()
	for seed := int64(0); seed < 4*maxPriorityEntries; seed++ {
		if _, err := c.PriorityList(nil, in, seed); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := c.priority.Len()
	c.mu.Unlock()
	if n > maxPriorityEntries {
		t.Fatalf("priority memo grew to %d entries, cap is %d", n, maxPriorityEntries)
	}
}

// TestCachesNilReceiver: every method must tolerate a nil cache set.
func TestCachesNilReceiver(t *testing.T) {
	var c *Caches
	in := randomInstance(3, 10, 2)
	p := NewPlatform(Pool{1, 100}, Pool{1, 100})
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeanRanks(nil, in); err != nil {
		t.Fatal(err)
	}
	list, err := c.PriorityList(nil, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := PriorityList(nil, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pure {
		if list[i] != pure[i] {
			t.Fatalf("nil-cache list %v, want %v", list, pure)
		}
	}
	if err := c.ValidateGraph(in); err != nil {
		t.Fatal(err)
	}
	st := NewPartialCached(in, p, nil)
	if st == nil || len(st.ReadyTasks()) == 0 {
		t.Fatal("nil-cache partial unusable")
	}
}

// TestCachesConcurrentSchedules hammers one cache set from many goroutines
// (the session concurrency contract; run under -race): validation, the
// memos and the runs must be safe, and every schedule identical to the
// reference.
func TestCachesConcurrentSchedules(t *testing.T) {
	in := randomInstance(4, 30, 3)
	total := totalFiles(in)
	p := NewPlatform(Pool{2, total}, Pool{1, total}, Pool{1, total})
	want, err := MemHEFTReference(tctx, in, p, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaches()
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := c.Validate(in, p); err != nil {
					t.Errorf("concurrent validate: %v", err)
					return
				}
				s, err := MemHEFT(tctx, in, p, Options{Seed: 4, Caches: c})
				if err != nil {
					t.Errorf("concurrent schedule: %v", err)
					return
				}
				for j := range want.Tasks {
					if s.Tasks[j] != want.Tasks[j] {
						t.Errorf("task %d placed %+v, want %+v", j, s.Tasks[j], want.Tasks[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// buildChain returns a fresh 3-task dual chain graph (plus a second child of
// the first task when extra is set).
func buildChain(extra bool) *dag.Graph {
	g := dag.New()
	a := g.AddTask("a", 2, 1)
	b := g.AddTask("b", 1, 2)
	c := g.AddTask("c", 3, 3)
	g.MustAddEdge(a, b, 2, 1)
	g.MustAddEdge(b, c, 1, 1)
	if extra {
		d := g.AddTask("d", 5, 5)
		g.MustAddEdge(a, d, 1, 1)
	}
	return g
}

// growTask appends a source task to the lifted instance in place: the graph
// and its timing matrix keep their pointers.
func growTask(in *Instance, name string, wBlue, wRed float64) {
	in.G.AddTask(name, wBlue, wRed)
	in.Times = append(in.Times, []float64{wBlue, wRed})
}

// TestCachesPriorityListInvalidation checks that the per-session
// (instance, seed) memo is a pure cache: repeated calls return equal fresh
// slices, mutating the returned slice is safe, a different seed misses, and
// growing the graph after a hit invalidates the entry.
func TestCachesPriorityListInvalidation(t *testing.T) {
	in := FromDual(buildChain(false))
	c := NewCaches()
	l1, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != len(l2) {
		t.Fatalf("cached list length %d, want %d", len(l2), len(l1))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("cached list %v differs from first %v", l2, l1)
		}
	}
	// The returned slice must be caller-owned.
	l2[0], l2[len(l2)-1] = l2[len(l2)-1], l2[0]
	l3, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if l3[i] != l1[i] {
			t.Fatalf("mutating a returned list corrupted the cache: %v, want %v", l3, l1)
		}
	}
	// Grow the graph: the memo must miss and reflect the new task.
	growTask(in, "late", 1, 1)
	l4, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(l4) != in.G.NumTasks() {
		t.Fatalf("stale cache after graph growth: %d tasks listed, graph has %d", len(l4), in.G.NumTasks())
	}
	// Different seed on the same instance: must recompute, and match the
	// pure computation on a fresh identical instance.
	fresh := FromDual(buildChain(false))
	growTask(fresh, "late", 1, 1)
	lf, err := PriorityList(nil, fresh, 13)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := c.PriorityList(nil, in, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lf {
		if lf[i] != lg[i] {
			t.Fatalf("seed switch returned stale list %v, want %v", lg, lf)
		}
	}
}

// TestCachesStaticsInvalidation checks that the memoized per-instance
// inputs of NewPartialCached track graph growth.
func TestCachesStaticsInvalidation(t *testing.T) {
	in := FromDual(buildChain(false))
	c := NewCaches()
	p := dualPlatform(1, 1, 100, 100)
	st := NewPartialCached(in, p, c)
	if got := len(st.ReadyTasks()); got != 1 {
		t.Fatalf("chain has %d sources, want 1", got)
	}
	if st.outFiles[0] != 2 {
		t.Fatalf("task 0 outFiles = %d, want 2", st.outFiles[0])
	}
	// A second edge out of task 0 on a new instance: statics must refresh.
	in = FromDual(buildChain(true))
	st2 := NewPartialCached(in, p, c)
	if st2.outFiles[0] != 3 {
		t.Fatalf("after growth, task 0 outFiles = %d, want 3", st2.outFiles[0])
	}
	// Same pointer growth (the dangerous case): mutate the instance in
	// place.
	growTask(in, "src2", 4, 4)
	st3 := NewPartialCached(in, p, c)
	if len(st3.pending) != in.G.NumTasks() {
		t.Fatalf("stale statics: pending has %d entries, graph %d tasks", len(st3.pending), in.G.NumTasks())
	}
	if got := len(st3.ReadyTasks()); got != 2 {
		t.Fatalf("after adding a source, %d ready tasks, want 2", got)
	}
	// Validate: a valid instance caches success; a new graph revalidates.
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	bad := dag.New()
	bad.AddTask("x", -1, 1)
	if err := c.Validate(FromDual(bad), p); err == nil {
		t.Fatal("negative processing time not rejected through the cache")
	}
}

// TestNilCachesComputeFresh checks the nil-receiver path every one-shot
// caller takes on the dual model: no cache, same results.
func TestNilCachesComputeFresh(t *testing.T) {
	in := FromDual(buildChain(true))
	var c *Caches
	list, err := c.PriorityList(nil, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := PriorityList(nil, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pure {
		if list[i] != pure[i] {
			t.Fatalf("nil-cache list %v, want %v", list, pure)
		}
	}
	p := dualPlatform(1, 1, 10, 10)
	if err := c.Validate(in, p); err != nil {
		t.Fatal(err)
	}
	if NewPartialCached(in, p, nil) == nil {
		t.Fatal("nil-cache NewPartialCached failed")
	}
}

// TestCachesConcurrentSameGraph hammers one cache set from many goroutines
// on one dual graph (the session concurrency contract); run with -race.
func TestCachesConcurrentSameGraph(t *testing.T) {
	in := FromDual(buildChain(true))
	c := NewCaches()
	want, err := PriorityList(nil, in, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := dualPlatform(2, 1, 50, 50)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Validate(in, p); err != nil {
					errs <- err
					return
				}
				list, err := c.PriorityList(nil, in, 5)
				if err != nil {
					errs <- err
					return
				}
				for j := range want {
					if list[j] != want[j] {
						t.Errorf("goroutine saw list %v, want %v", list, want)
						return
					}
				}
				_ = NewPartialCached(in, p, c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
