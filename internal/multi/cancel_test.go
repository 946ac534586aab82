package multi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
)

// Cancellation coverage for the engine, mirroring the session tests: a
// cancelled context must interrupt a schedule promptly
// both before the ranking phase and in the middle of placement, returning
// the context error wrapped.

// bigInstance builds a layered DAG large enough that a full schedule takes
// visible work (thousands of tasks, dense-ish layers).
func bigInstance(n, k int) *Instance {
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask("", 1, 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j < i+4; j++ {
			g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), 1, 1)
		}
	}
	times := make([][]float64, n)
	for i := range times {
		times[i] = make([]float64, k)
		for p := range times[i] {
			times[i][p] = float64(1 + (i+p)%5)
		}
	}
	return NewInstance(g, times)
}

func bigPlatform(k int) Platform {
	pools := make([]Pool, k)
	for j := range pools {
		pools[j] = Pool{Procs: 2, Capacity: 1 << 40}
	}
	return NewPlatform(pools...)
}

// TestCancelledBeforeRanking: an already-cancelled context must interrupt
// both heuristics before any ranking or placement work, promptly even on a
// large instance.
func TestCancelledBeforeRanking(t *testing.T) {
	in := bigInstance(4000, 4)
	p := bigPlatform(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, fn := range map[string]Func{"MemHEFT": MemHEFT, "MemMinMin": MemMinMin} {
		start := time.Now()
		s, err := fn(ctx, in, p, Options{Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on cancelled ctx: err = %v", name, err)
		}
		if s != nil {
			t.Fatalf("%s on cancelled ctx returned a schedule", name)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s took %v to notice a pre-cancelled context", name, d)
		}
	}
}

// countdownCtx is a context whose Err starts failing after a fixed number
// of polls — a deterministic way to land the cancellation in the middle of
// the placement loop.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	c.polls--
	if c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledMidPlacement: a context that expires partway through the
// placement loop interrupts the run with the context error and a partial
// (not completed) schedule.
func TestCancelledMidPlacement(t *testing.T) {
	in := bigInstance(3000, 3)
	p := bigPlatform(3)
	for name, fn := range map[string]Func{"MemHEFT": MemHEFT, "MemMinMin": MemMinMin} {
		// The first poll happens before ranking, then the (now
		// cancellable) ranking phase polls every rankStride tasks
		// (3 polls at n=3000), and the placement loop polls every
		// cancelStride steps — 10 polls lands the cancellation a few
		// hundred placements in.
		ctx := &countdownCtx{Context: context.Background(), polls: 10}
		s, err := fn(ctx, in, p, Options{Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s mid-placement: err = %v", name, err)
		}
		if s == nil {
			t.Fatalf("%s mid-placement: no partial schedule returned", name)
		}
		placed := 0
		for i := range s.Tasks {
			if s.Tasks[i].Proc >= 0 {
				placed++
			}
		}
		if placed == 0 || placed >= in.G.NumTasks() {
			t.Fatalf("%s mid-placement: %d of %d tasks placed, want a strict partial prefix", name, placed, in.G.NumTasks())
		}
	}
}

// TestCancelledDuringRanking: a cancellation landing inside the (now
// cooperative) ranking phase interrupts the run before any placement — no
// partial schedule exists yet, and the error names the heuristic.
func TestCancelledDuringRanking(t *testing.T) {
	in := bigInstance(3000, 3)
	p := bigPlatform(3)
	// Poll 1 is the entry check; polls 2 and 3 are the ranking loop's at
	// steps 0 and rankStride — the countdown expires mid-ranking.
	ctx := &countdownCtx{Context: context.Background(), polls: 3}
	s, err := MemHEFT(ctx, in, p, Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-ranking: err = %v", err)
	}
	if s != nil {
		t.Fatal("mid-ranking cancellation returned a schedule")
	}
	if !strings.Contains(err.Error(), "MemHEFT interrupted") {
		t.Fatalf("mid-ranking error not labelled: %v", err)
	}
}

// TestCancelledMidPlacementViaDeadline exercises the same path with a real
// deadline context on a big instance: the run must stop with
// DeadlineExceeded well before a full schedule would complete.
func TestCancelledMidPlacementViaDeadline(t *testing.T) {
	in := bigInstance(6000, 4)
	p := bigPlatform(4)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := MemHEFT(ctx, in, p, Options{Seed: 1})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	// err == nil is possible on a very fast machine (the schedule finished
	// inside the deadline); the test only pins the error classification.
}
