package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	memsched "repro"
	"repro/serve"
	"repro/sweep"
)

// workload is one closed-loop traffic mix: its inputs, the library
// reference for every request, and how one unit is driven and checked.
type workload interface {
	topology() topology
	// limit is the latency a unit must meet to count as good; it sits far
	// above p90 so goodput counts stalls and failures, not drift.
	limit() time.Duration
	// setup registers the workload's graphs and sends one request per
	// catalog entry, checking each answer.
	setup(c *client, cl *cluster) error
	// unit drives unit i against the server at base and returns its
	// outcome and the schedules it delivered. With a tracer, the request
	// spans go under span root.
	unit(c *client, base string, i int, tr *tracer, root int) (outcome, int)
	// layers times the layers' public functions on the workload's inputs.
	layers(lb *layerBench) error
	// digest hashes every reference result, so runs of two commits can be
	// checked for identical schedules.
	digest() string
}

// expect is the library's answer to one schedule request.
type expect struct {
	memBound  bool
	makespan  float64
	peaks     []int64
	poolTasks []int
}

func expectOf(res *memsched.Result, err error) (expect, error) {
	if err != nil {
		if errors.Is(err, memsched.ErrMemoryBound) {
			return expect{memBound: true}, nil
		}
		return expect{}, err
	}
	return expect{makespan: res.Makespan(), peaks: res.PeakResidency(), poolTasks: res.Stats.PoolTasks}, nil
}

func (e expect) write(h hash.Hash) {
	fmt.Fprintf(h, "%t %x %v %v\n", e.memBound, math.Float64bits(e.makespan), e.peaks, e.poolTasks)
}

// check compares one /v1/schedule response with the reference. A
// memory-bound refusal is correct when the library refuses too.
func (e expect) check(status int, body []byte) (outcome, *serve.ScheduleResponse) {
	if status != http.StatusOK {
		if e.memBound && status == http.StatusUnprocessableEntity && errorCode(body) == serve.CodeMemoryBound {
			return unitOK, nil
		}
		if errorCode(body) == serve.CodeMemoryBound {
			return unitMismatch, nil
		}
		return unitFailed, nil
	}
	var r serve.ScheduleResponse
	if json.Unmarshal(body, &r) != nil {
		return unitFailed, nil
	}
	if e.memBound || r.Makespan != e.makespan || !slices.Equal(r.Peaks, e.peaks) || !slices.Equal(r.PoolTasks, e.poolTasks) {
		return unitMismatch, &r
	}
	return unitOK, &r
}

// graphFor generates a LargeRandSet-shaped random DAG (the daggen
// generator behind cmd/daggen -kind random -large).
func graphFor(tasks int, seed int64) (*memsched.Graph, []byte, error) {
	p := memsched.LargeRandParams()
	p.Size = tasks
	g, err := memsched.GenerateRandom(p, seed)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(g)
	return g, raw, err
}

// poolSpecs builds the wire pools: one per entry of procs, each with the
// same capacity (nil = unlimited).
func poolSpecs(procs []int, capacity *int64) []serve.PoolSpec {
	out := make([]serve.PoolSpec, len(procs))
	for i, p := range procs {
		out[i] = serve.PoolSpec{Procs: p, Capacity: capacity}
	}
	return out
}

// platformOf builds the library platform the server builds from specs.
func platformOf(specs []serve.PoolSpec) memsched.Platform {
	pools := make([]memsched.Pool, len(specs))
	for i, s := range specs {
		c := int64(memsched.Unlimited)
		if s.Capacity != nil {
			c = *s.Capacity
		}
		pools[i] = memsched.Pool{Procs: s.Procs, Capacity: c}
	}
	return memsched.NewPlatform(pools...)
}

// capacityOf is alpha times the graph's total file volume.
func capacityOf(g *memsched.Graph, alpha float64) *int64 {
	c := int64(alpha * float64(g.TotalFiles()))
	return &c
}

// liftedTimes is the graph's dual times as a 2-column pool-time matrix:
// the same instance, scheduled by the k-pool engine instead of the dual one.
func liftedTimes(g *memsched.Graph) [][]float64 {
	times := make([][]float64, g.NumTasks())
	for i := range times {
		t := g.Task(memsched.TaskID(i))
		times[i] = []float64{t.WBlue, t.WRed}
	}
	return times
}

// kpoolTimes is a 4-column pool-time matrix: pool 0 runs the blue times,
// pools 1-3 the red times, 20% slower per extra pool.
func kpoolTimes(g *memsched.Graph) [][]float64 {
	times := make([][]float64, g.NumTasks())
	for i := range times {
		t := g.Task(memsched.TaskID(i))
		times[i] = []float64{t.WBlue, t.WRed, t.WRed * 1.2, t.WRed * 1.4}
	}
	return times
}

// reply is one HTTP answer plus the client span that timed it.
type reply struct {
	status int
	body   []byte
	span   int // "http <name>" span id; -1 untraced
}

// postTraced posts body, recording an "http <name>" span under root and
// tagging the request with an id the server's trace capture echoes.
func postTraced(c *client, tr *tracer, root, unit int, name, url string, body []byte) (reply, error) {
	r := reply{span: -1}
	id := ""
	if tr != nil {
		id = "u" + strconv.Itoa(unit) + "-" + strconv.Itoa(len(tr.spans))
		r.span = tr.begin("http "+name, root, unit)
		tr.reqs[id] = r.span
	}
	var err error
	r.status, r.body, err = c.post(url, body, id)
	tr.end(r.span)
	return r, err
}

// addServerSpans records a server timeline under the client's http span
// parent:
// top-level phases as "server.<name>", each sub-phase ("engine/rank",
// "sweep/compile", or a sweep point's engine phases) under the top-level
// phase of its prefix, or else the one it starts in. Offsets are relative
// to the http span's start; the replica's own epoch starts a little
// later, so the placement is approximate but lengths are exact.
func addServerSpans(tr *tracer, parent int, spans []serve.TraceSpan) {
	if tr == nil || len(spans) == 0 {
		return
	}
	start, unit := tr.spans[parent].Start, tr.spans[parent].Unit
	at := func(s serve.TraceSpan) (time.Duration, time.Duration) {
		b := start + time.Duration(s.StartMicros)*time.Microsecond
		return b, b + time.Duration(s.DurMicros)*time.Microsecond
	}
	top := map[string]int{}
	for _, s := range spans {
		if !strings.Contains(s.Name, "/") {
			b, e := at(s)
			top[s.Name] = tr.add("server."+s.Name, parent, unit, b, e)
		}
	}
	for _, s := range spans {
		prefix, _, sub := strings.Cut(s.Name, "/")
		if !sub {
			continue
		}
		b, e := at(s)
		p, ok := top[prefix]
		if !ok {
			p = parent
			for _, id := range top {
				if tr.spans[id].Start <= b && b < tr.spans[id].End {
					p = id
				}
			}
		}
		tr.add("server."+s.Name, p, unit, b, e)
	}
	tr.served[parent] = true
}

// ---------------------------------------------------------------------------
// inline-routed

// inlineRouted cycles 8 inline 3000-task graphs through a router in front
// of 2 replicas. After setup every request is a session-cache hit.
type inlineRouted struct {
	graphs    []*memsched.Graph
	bodies    [][]byte
	platforms []memsched.Platform
	want      []expect
	owners    []int // replica that serves body i, learned at setup
}

const (
	inlineGraphs = 8
	inlineTasks  = 3000
	inlineAlpha  = 0.35
)

func newInlineRouted(seed int64) (*inlineRouted, error) {
	w := &inlineRouted{owners: make([]int, inlineGraphs)}
	ctx := context.Background()
	for i := 0; i < inlineGraphs; i++ {
		g, raw, err := graphFor(inlineTasks, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		pools := poolSpecs([]int{2, 2}, capacityOf(g, inlineAlpha))
		body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Pools: pools, Scheduler: "memheft"})
		if err != nil {
			return nil, err
		}
		sess, err := memsched.NewSession(g)
		if err != nil {
			return nil, err
		}
		p := platformOf(pools)
		e, err := expectOf(sess.Schedule(ctx, p, memsched.WithScheduler("memheft")))
		if err != nil {
			return nil, fmt.Errorf("reference for graph %d: %w", i, err)
		}
		w.graphs = append(w.graphs, g)
		w.bodies = append(w.bodies, body)
		w.platforms = append(w.platforms, p)
		w.want = append(w.want, e)
	}
	return w, nil
}

func (w *inlineRouted) topology() topology   { return topology{replicas: 2, router: true} }
func (w *inlineRouted) limit() time.Duration { return 2 * time.Second }

func (w *inlineRouted) digest() string {
	h := sha256.New()
	for _, e := range w.want {
		e.write(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *inlineRouted) setup(c *client, cl *cluster) error {
	for i, body := range w.bodies {
		before, err := healths(cl)
		if err != nil {
			return err
		}
		status, resp, err := c.post(cl.front()+"/v1/schedule", body, "")
		if err != nil {
			return err
		}
		if o, _ := w.want[i].check(status, resp); o != unitOK {
			return fmt.Errorf("setup request %d: %v (status %d)", i, o, status)
		}
		after, err := healths(cl)
		if err != nil {
			return err
		}
		w.owners[i] = -1
		for r := range after {
			if after[r].SessionMisses > before[r].SessionMisses {
				w.owners[i] = r
			}
		}
		if w.owners[i] < 0 {
			return fmt.Errorf("setup request %d: no replica recorded a session miss", i)
		}
	}
	return nil
}

// owner is the replica that serves unit i when it is sent directly.
func (w *inlineRouted) owner(i int) int { return w.owners[i%len(w.bodies)] }

// unit posts body i%8 to base and checks the answer.
func (w *inlineRouted) unit(c *client, base string, i int, tr *tracer, root int) (outcome, int) {
	k := i % len(w.bodies)
	url := base + "/v1/schedule"
	if tr != nil {
		url += "?trace=1"
	}
	rep, err := postTraced(c, tr, root, i, "schedule", url, w.bodies[k])
	if err != nil {
		return unitFailed, 0
	}
	o, r := w.want[k].check(rep.status, rep.body)
	if o != unitOK || r == nil {
		return o, 0
	}
	addServerSpans(tr, rep.span, r.Trace)
	return unitOK, 1
}

// ---------------------------------------------------------------------------
// id-churn

// churnEntry is one catalog graph of id-churn: its registration body and
// the six schedule-by-id requests of its job.
type churnEntry struct {
	graph    *memsched.Graph
	times    [][]float64 // nil for a dual graph
	register []byte
	id       string
	sched    [][]byte
	plats    []memsched.Platform
	algos    []string
	seeds    []int64
	want     []expect
}

// idChurn registers each of 32 graphs in turn on a replica whose session
// cache holds 8, then schedules it by id 6 times.
type idChurn struct {
	entries []churnEntry
}

const (
	churnGraphs = 32
	churnTasks  = 1000
	churnJob    = 6
	churnCache  = 8
)

var churnAlgos = []string{"memheft", "memminmin", "heft"}

func newIDChurn(seed int64) (*idChurn, error) {
	w := &idChurn{}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < churnGraphs; i++ {
		g, raw, err := graphFor(churnTasks, seed*1000+500+int64(i))
		if err != nil {
			return nil, err
		}
		e := churnEntry{graph: g}
		procs := []int{2, 2}
		var opts []memsched.SessionOption
		if i%2 == 1 {
			e.times = kpoolTimes(g)
			procs = []int{2, 1, 1, 1}
			opts = append(opts, memsched.WithPoolTimes(e.times))
		}
		if e.register, err = json.Marshal(serve.RegisterRequest{Graph: raw, Times: e.times}); err != nil {
			return nil, err
		}
		sess, err := memsched.NewSession(g, opts...)
		if err != nil {
			return nil, err
		}
		e.id = sess.GraphHash()
		// The job mixes the three heuristics at six capacities from 0.2 to
		// 1.0 of the total file volume, in an order drawn from the seed.
		alphas := rng.Perm(churnJob)
		for j := 0; j < churnJob; j++ {
			alpha := 0.2 + 0.8*float64(alphas[j])/float64(churnJob-1)
			pools := poolSpecs(procs, capacityOf(g, alpha))
			algo := churnAlgos[(i+j)%len(churnAlgos)]
			s := int64(rng.Intn(16))
			body, err := json.Marshal(serve.ScheduleRequest{GraphID: e.id, Pools: pools, Scheduler: algo, Seed: s})
			if err != nil {
				return nil, err
			}
			p := platformOf(pools)
			want, err := expectOf(sess.Schedule(ctx, p, memsched.WithScheduler(algo), memsched.WithSeed(s)))
			if err != nil {
				return nil, fmt.Errorf("reference for graph %d request %d: %w", i, j, err)
			}
			e.sched = append(e.sched, body)
			e.plats = append(e.plats, p)
			e.algos = append(e.algos, algo)
			e.seeds = append(e.seeds, s)
			e.want = append(e.want, want)
		}
		w.entries = append(w.entries, e)
	}
	return w, nil
}

func (w *idChurn) topology() topology {
	return topology{replicas: 1, cacheSize: churnCache}
}
func (w *idChurn) limit() time.Duration { return 5 * time.Second }

func (w *idChurn) digest() string {
	h := sha256.New()
	for _, e := range w.entries {
		fmt.Fprintln(h, e.id)
		for _, x := range e.want {
			x.write(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// register posts entry e's registration and checks the returned id.
func (w *idChurn) register(c *client, base string, e *churnEntry, tr *tracer, root, unit int) outcome {
	rep, err := postTraced(c, tr, root, unit, "register", base+"/v1/graphs", e.register)
	if err != nil || rep.status != http.StatusOK {
		return unitFailed
	}
	var r serve.RegisterResponse
	if json.Unmarshal(rep.body, &r) != nil {
		return unitFailed
	}
	if r.ID != e.id || r.Tasks != e.graph.NumTasks() || r.Edges != e.graph.NumEdges() {
		return unitMismatch
	}
	return unitOK
}

func (w *idChurn) setup(c *client, cl *cluster) error {
	for i := range w.entries {
		if o := w.register(c, cl.front(), &w.entries[i], nil, -1, i); o != unitOK {
			return fmt.Errorf("setup registration %d: %v", i, o)
		}
	}
	return nil
}

func (w *idChurn) unit(c *client, base string, i int, tr *tracer, root int) (outcome, int) {
	e := &w.entries[i%len(w.entries)]
	if o := w.register(c, base, e, tr, root, i); o != unitOK {
		return o, 0
	}
	url := base + "/v1/schedule"
	if tr != nil {
		url += "?trace=1"
	}
	delivered := 0
	for j, body := range e.sched {
		rep, err := postTraced(c, tr, root, i, "schedule", url, body)
		if err != nil {
			return unitFailed, delivered
		}
		o, r := e.want[j].check(rep.status, rep.body)
		if o != unitOK {
			return o, delivered
		}
		if r != nil {
			delivered++
			addServerSpans(tr, rep.span, r.Trace)
		}
	}
	return unitOK, delivered
}

// ---------------------------------------------------------------------------
// sweep-replay

// sweepReplay streams one 64-point alpha sweep per unit, cycling through
// a catalog of registered 1000-task graphs.
type sweepReplay struct {
	entries []sweepEntry
	spec    sweep.Spec // the same for every graph: alphas scale each graph's volume
}

// sweepEntry is one catalog graph of sweep-replay: its registration, its
// sweep request and the library's answer to it.
type sweepEntry struct {
	graph    *memsched.Graph
	raw      []byte
	register []byte
	id       string
	body     []byte
	want     *sweep.Result
}

const (
	sweepGraphs = 32
	sweepTasks  = 1000
)

func newSweepReplay(seed int64) (*sweepReplay, error) {
	alphas := make([]float64, 16)
	for i := range alphas {
		alphas[i] = 0.55 + 0.03*float64(i)
	}
	pools := poolSpecs([]int{2, 2}, nil)
	req := serve.SweepRequest{
		Pools:      pools,
		Alphas:     alphas,
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{7, 8},
	}
	w := &sweepReplay{spec: sweep.Spec{Base: platformOf(pools), Alphas: alphas, Schedulers: req.Schedulers, Seeds: req.Seeds}}
	for i := 0; i < sweepGraphs; i++ {
		g, raw, err := graphFor(sweepTasks, seed*1000+900+int64(i))
		if err != nil {
			return nil, err
		}
		e := sweepEntry{graph: g, raw: raw}
		if e.register, err = json.Marshal(serve.RegisterRequest{Graph: raw}); err != nil {
			return nil, err
		}
		sess, err := memsched.NewSession(g)
		if err != nil {
			return nil, err
		}
		e.id = sess.GraphHash()
		req.GraphID = e.id
		if e.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if e.want, err = sweep.Run(context.Background(), sess, w.spec); err != nil {
			return nil, fmt.Errorf("reference sweep %d: %w", i, err)
		}
		w.entries = append(w.entries, e)
	}
	return w, nil
}

func (w *sweepReplay) topology() topology   { return topology{replicas: 1} }
func (w *sweepReplay) limit() time.Duration { return 3 * time.Second }

func (w *sweepReplay) digest() string {
	h := sha256.New()
	for _, e := range w.entries {
		fmt.Fprintln(h, e.id)
		for _, p := range e.want.Points {
			fmt.Fprintf(h, "%d %t %s %x %v\n", p.Index, p.Feasible, p.Reason, math.Float64bits(p.Makespan), p.Peaks)
		}
		s := e.want.Summary
		fmt.Fprintf(h, "%d %d %d %x %x %d\n", s.Points, s.Feasible, s.BestIndex,
			math.Float64bits(s.BestMakespan), math.Float64bits(s.RefMakespan), s.Peak)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *sweepReplay) setup(c *client, cl *cluster) error {
	for i, e := range w.entries {
		status, body, err := c.post(cl.front()+"/v1/graphs", e.register, "")
		if err != nil {
			return err
		}
		var r serve.RegisterResponse
		if status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.ID != e.id {
			return fmt.Errorf("setup registration %d: status %d", i, status)
		}
	}
	for i := range w.entries {
		if o, _ := w.unit(c, cl.front(), i, nil, -1); o != unitOK {
			return fmt.Errorf("setup sweep %d: %v", i, o)
		}
	}
	return nil
}

// unit streams the sweep of catalog graph i % sweepGraphs. The server
// records the sweep's spans whether or not ?trace=1 is set (the flag only
// embeds a timeline in schedule responses), so the traced run reads them
// from /debug/traces.
func (w *sweepReplay) unit(c *client, base string, i int, tr *tracer, root int) (outcome, int) {
	e := &w.entries[i%len(w.entries)]
	rep, err := postTraced(c, tr, root, i, "sweep", base+"/v1/sweep", e.body)
	if err != nil || rep.status != http.StatusOK {
		return unitFailed, 0
	}
	points, sum, err := parseSweep(rep.body)
	if err != nil {
		return unitFailed, len(points)
	}
	return e.check(points, sum), len(points)
}

var errNoSummary = errors.New("sweep stream ended without a summary record")

// parseSweep splits an NDJSON sweep stream into its point records and the
// trailing summary.
func parseSweep(body []byte) ([]serve.SweepPoint, *serve.SweepSummary, error) {
	var points []serve.SweepPoint
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		line := sc.Bytes()
		if err := json.Unmarshal(line, &head); err != nil {
			return points, nil, err
		}
		switch head.Type {
		case "point":
			var p serve.SweepPoint
			if err := json.Unmarshal(line, &p); err != nil {
				return points, nil, err
			}
			points = append(points, p)
		case "summary":
			var s serve.SweepSummary
			if err := json.Unmarshal(line, &s); err != nil {
				return points, nil, err
			}
			return points, &s, nil
		default:
			return points, nil, fmt.Errorf("sweep record %q: %s", head.Type, line)
		}
	}
	if err := sc.Err(); err != nil {
		return points, nil, err
	}
	return points, nil, errNoSummary
}

// check compares a streamed sweep with the library's sweep.Run.
func (e *sweepEntry) check(points []serve.SweepPoint, sum *serve.SweepSummary) outcome {
	if len(points) != len(e.want.Points) {
		return unitMismatch
	}
	for k, got := range points {
		p := e.want.Points[k]
		if got.Index != p.Index || got.Feasible != p.Feasible || got.Reason != p.Reason ||
			got.Makespan != p.Makespan || !slices.Equal(got.Peaks, p.Peaks) ||
			got.Scheduler != p.Point.Scheduler || got.Seed != p.Point.Seed || got.Alpha != p.Point.Alpha {
			return unitMismatch
		}
	}
	s := e.want.Summary
	if sum.Points != s.Points || sum.Feasible != s.Feasible || sum.BestIndex != s.BestIndex ||
		sum.BestMakespan != s.BestMakespan || sum.RefMakespan != s.RefMakespan || sum.Peak != s.Peak {
		return unitMismatch
	}
	return unitOK
}
