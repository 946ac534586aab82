package schedule_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/daggen"
	"repro/internal/multi"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// TestMemoryPeaksMatchesReferenceOnHeuristicSchedules checks the
// single-pass MemoryPeaks against the oracle on what the service actually
// finalizes: dual schedules produced by every registered heuristic on
// random DAGs under loose and tight memory bounds.
func TestMemoryPeaksMatchesReferenceOnHeuristicSchedules(t *testing.T) {
	ctx := context.Background()
	params := daggen.LargeParams()
	runs := 0
	for _, n := range []int{30, 300} {
		params.Size = n
		for seed := int64(1); seed <= 6; seed++ {
			g, err := daggen.Generate(params, seed)
			if err != nil {
				t.Fatal(err)
			}
			total := g.TotalFiles()
			for _, alpha := range []float64{0.3, 0.6, 2} {
				bound := int64(alpha * float64(total))
				p := platform.New(2, 2, bound, bound)
				for _, name := range multi.Names() {
					run, err := multi.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					ms, err := run(ctx, multi.FromDual(g), multi.FromDualPlatform(p), multi.Options{Seed: seed})
					if errors.Is(err, multi.ErrMemoryBound) {
						continue
					}
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", name, n, seed, err)
					}
					dp, _ := ms.Platform.Dual()
					s := &schedule.Schedule{Graph: g, Platform: dp, Tasks: ms.Tasks, CommStart: ms.CommStart}
					blue, red := s.MemoryPeaks()
					wantBlue, wantRed := schedule.MemoryPeaksReference(s)
					if blue != wantBlue || red != wantRed {
						t.Fatalf("%s n=%d seed=%d alpha=%g: peaks (%d,%d), reference (%d,%d)",
							name, n, seed, alpha, blue, red, wantBlue, wantRed)
					}
					runs++
				}
			}
		}
	}
	if runs < 50 {
		t.Fatalf("only %d feasible schedules compared", runs)
	}
}
