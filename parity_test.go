package memsched

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The engine goldens pin what Session.Schedule and Session.Optimal return
// for dual sessions: one line per case with the makespan bits, the peaks,
// the schedule's platform and a SHA-256 over starts, processors and
// communication starts (or the error text of a failing case). Candidate
// cache counters are deliberately left out: they describe how the engine
// memoizes, not what it decides. After an intentional behaviour change,
// regenerate with
//
//	go test . -run 'TestEngineGolden' -update-golden
//
// and review the diff.
var updateGolden = flag.Bool("update-golden", false, "rewrite the engine goldens under testdata/ from the current engine")

// scheduleDigest hashes the decision content of a dual schedule: every task
// start (float bits) and processor, then every communication start (NaN
// for intra-memory edges, hashed as one canonical NaN).
func scheduleDigest(s *Schedule) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, tp := range s.Tasks {
		put(math.Float64bits(tp.Start))
		put(uint64(int64(tp.Proc)))
	}
	for _, c := range s.CommStart {
		if math.IsNaN(c) {
			put(0x7ff8000000000001)
			continue
		}
		put(math.Float64bits(c))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultLine formats one golden case: the error text when err != nil,
// otherwise the result's makespan bits, peaks, platform and digest.
func resultLine(tag string, res *Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", tag, err.Error())
	}
	if res.Schedule == nil {
		return fmt.Sprintf("%s makespan=%#x schedule=nil", tag, math.Float64bits(res.Makespan()))
	}
	return fmt.Sprintf("%s makespan=%#x peaks=%v platform=%+v sha=%s",
		tag, math.Float64bits(res.Makespan()), res.PeakResidency(), res.Schedule.Platform, scheduleDigest(res.Schedule))
}

// checkGolden compares lines with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (regenerate with -update-golden): %v", path, err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s: %d cases, golden has %d", name, len(lines), len(want))
	}
	bad := 0
	for i := range want {
		if lines[i] != want[i] {
			if bad < 5 {
				t.Errorf("%s line %d:\n got  %s\n want %s", name, i+1, lines[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d cases differ from the golden", name, bad, len(want))
	}
}

// goldenGraph builds the random DAG of size n and seed used by the engine
// goldens, with its session and the HEFT peak the memory ratios scale.
func goldenGraph(t *testing.T, n int, seed int64) (*Session, int64) {
	t.Helper()
	params := LargeRandParams()
	params.Size = n
	g, err := GenerateRandom(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sess.Schedule(context.Background(), NewDualPlatform(2, 2, Unlimited, Unlimited), WithScheduler("heft"), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	peak := int64(0)
	for _, p := range ref.PeakResidency() {
		peak = max(peak, p)
	}
	return sess, peak
}

// alphaBound scales the HEFT peak by alpha (at least 1).
func alphaBound(peak int64, alpha float64) int64 {
	return max(1, int64(math.Round(alpha*float64(peak))))
}

// TestEngineGoldenParity runs the four list schedulers over 512 cases —
// n ∈ {30, 100, 300, 1000} × seeds 1–8 × α ∈ {0.3, 0.5, 0.7, 1} of the
// HEFT peak, on 2+2 processors — and compares every result line with the
// golden recorded with the retired dual-only engine.
func TestEngineGoldenParity(t *testing.T) {
	var lines []string
	for _, n := range []int{30, 100, 300, 1000} {
		for seed := int64(1); seed <= 8; seed++ {
			sess, peak := goldenGraph(t, n, seed)
			for _, alpha := range []float64{0.3, 0.5, 0.7, 1} {
				b := alphaBound(peak, alpha)
				p := NewDualPlatform(2, 2, b, b)
				for _, name := range []string{"memheft", "memminmin", "heft", "minmin"} {
					res, err := sess.Schedule(context.Background(), p, WithScheduler(name), WithSeed(seed))
					lines = append(lines, resultLine(fmt.Sprintf("n=%d seed=%d alpha=%g %s", n, seed, alpha, name), res, err))
				}
			}
		}
	}
	checkGolden(t, "engine_parity.golden", lines)
}

// TestEngineGoldenInsertion pins the insertion-policy ablation
// (WithInsertion) over n ∈ {30, 100, 300} × seeds 1–4 × α ∈ {0.5, 0.7, 1}.
func TestEngineGoldenInsertion(t *testing.T) {
	var lines []string
	for _, n := range []int{30, 100, 300} {
		for seed := int64(1); seed <= 4; seed++ {
			sess, peak := goldenGraph(t, n, seed)
			for _, alpha := range []float64{0.5, 0.7, 1} {
				b := alphaBound(peak, alpha)
				res, err := sess.Schedule(context.Background(), NewDualPlatform(2, 2, b, b), WithInsertion(), WithSeed(seed))
				lines = append(lines, resultLine(fmt.Sprintf("n=%d seed=%d alpha=%g memheft-insertion", n, seed, alpha), res, err))
			}
		}
	}
	checkGolden(t, "engine_insertion.golden", lines)
}

// TestEngineGoldenOptimal pins the branch-and-bound search on small graphs:
// makespan, explored nodes and proof status, with and without a MemHEFT
// incumbent. Node budgets keep every case deterministic and fast; the
// n=30 cases with ample memory exhaust theirs and report unproven results.
func TestEngineGoldenOptimal(t *testing.T) {
	type instance struct {
		tag  string
		sess *Session
		p    Platform
	}
	var cases []instance
	ex, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{2, 3, 4, 5, Unlimited} {
		cases = append(cases, instance{fmt.Sprintf("example m=%d", m), ex, NewDualPlatform(1, 1, m, m)})
	}
	for _, n := range []int{10, 16, 30} {
		for seed := int64(1); seed <= 4; seed++ {
			sess, peak := goldenGraph(t, n, seed)
			alphas := []float64{0.5, 0.7, 1}
			if n == 30 {
				alphas = []float64{2}
			}
			for _, alpha := range alphas {
				b := alphaBound(peak, alpha)
				cases = append(cases, instance{fmt.Sprintf("n=%d seed=%d alpha=%g", n, seed, alpha), sess, NewDualPlatform(1, 1, b, b)})
			}
		}
	}
	var lines []string
	for _, c := range cases {
		opts := []ScheduleOption{WithMaxNodes(20000)}
		res, err := c.sess.Optimal(context.Background(), c.p, opts...)
		lines = append(lines, optimalLine(c.tag+" optimal", res, err))
		inc, ierr := c.sess.Schedule(context.Background(), c.p, WithSeed(1))
		if ierr != nil {
			lines = append(lines, resultLine(c.tag+" incumbent", nil, ierr))
			continue
		}
		res, err = c.sess.Optimal(context.Background(), c.p, append(opts, WithIncumbent(inc.Schedule))...)
		lines = append(lines, optimalLine(c.tag+" optimal+incumbent", res, err))
	}
	checkGolden(t, "engine_optimal.golden", lines)
}

// optimalLine is resultLine plus the search's node count and proof status.
func optimalLine(tag string, res *Result, err error) string {
	if err != nil {
		return resultLine(tag, nil, err)
	}
	return resultLine(fmt.Sprintf("%s nodes=%d proven=%t", tag, res.Stats.Nodes, res.Stats.Proven), res, nil)
}
