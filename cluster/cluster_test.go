package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	memsched "repro"
	"repro/cluster"
	"repro/cluster/ring"
	"repro/serve"
)

// testReplica is one live memschedd replica behind an httptest listener.
type testReplica struct {
	id  string
	ts  *httptest.Server
	srv *serve.Server
}

// kill severs the replica abruptly: the listener stops accepting and
// every open connection is cut, like a crashed process — ts.Close would
// instead wait politely for in-flight requests.
func (r *testReplica) kill() {
	_ = r.ts.Listener.Close()
	r.ts.CloseClientConnections()
}

func startReplica(t *testing.T, id string, cfg serve.Config) *testReplica {
	t.Helper()
	cfg.ReplicaID = id
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testReplica{id: id, ts: ts, srv: srv}
}

// startCluster spins up one replica per id (cfgFor may be nil for all
// defaults) and a router over them, served from its own httptest
// listener. It returns a client pointed at the router, the router, its
// base URL, and the replicas by id.
func startCluster(t *testing.T, ids []string, cfgFor func(id string) serve.Config, rcfg cluster.Config) (*serve.Client, *cluster.Router, string, map[string]*testReplica) {
	t.Helper()
	reps := make(map[string]*testReplica, len(ids))
	for _, id := range ids {
		var cfg serve.Config
		if cfgFor != nil {
			cfg = cfgFor(id)
		}
		rep := startReplica(t, id, cfg)
		reps[id] = rep
		rcfg.Replicas = append(rcfg.Replicas, cluster.Replica{ID: id, URL: rep.ts.URL})
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return serve.NewClient(rts.URL), rt, rts.URL, reps
}

// randGraph generates a distinct small graph per seed.
func randGraph(t *testing.T, size int, seed int64) *memsched.Graph {
	t.Helper()
	params := memsched.SmallRandParams()
	params.Size = size
	g, err := memsched.GenerateRandom(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ownerOf reproduces the router's routing decision for a key: the same
// ring the router builds over the replica ids.
func ownerOf(t *testing.T, ids []string, key string) string {
	t.Helper()
	rg, err := ring.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	return rg.Owner(key)
}

// scrapeMetric fetches url/metrics and sums the values of all series of
// the named metric (optionally filtered by a label substring).
func scrapeMetric(t *testing.T, base, name, labelSub string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing this prefix
		}
		if labelSub != "" && !strings.Contains(rest, labelSub) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest[strings.LastIndex(rest, " ")+1:], "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

func TestParseReplicas(t *testing.T) {
	reps, err := cluster.ParseReplicas("a=http://10.0.0.1:8080, b=http://10.0.0.2:8080/")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Replica{{ID: "a", URL: "http://10.0.0.1:8080"}, {ID: "b", URL: "http://10.0.0.2:8080"}}
	if len(reps) != 2 || reps[0] != want[0] || reps[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", reps, want)
	}

	// Bare URLs double as ids.
	reps, err = cluster.ParseReplicas("http://127.0.0.1:8081,https://h2:8082")
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].ID != "http://127.0.0.1:8081" || reps[1].ID != "https://h2:8082" {
		t.Fatalf("bare-url ids wrong: %+v", reps)
	}

	for name, spec := range map[string]string{
		"empty":        "",
		"empty entry":  "a=http://h:1,,b=http://h:2",
		"dup id":       "a=http://h:1,a=http://h:2",
		"no scheme":    "a=h:1",
		"path":         "a=http://h:1/v1",
		"empty id":     "=http://h:1",
		"dup bare url": "http://h:1,http://h:1",
	} {
		if _, err := cluster.ParseReplicas(spec); err == nil {
			t.Errorf("%s: ParseReplicas(%q) accepted", name, spec)
		}
	}
}

// TestRouterAffinity drives several distinct graphs through a 3-replica
// router and checks the cluster behaves like one big cache: every graph's
// session lives on exactly one replica, repeat requests hit it warm, and
// the answers are bit-identical to a standalone server's.
func TestRouterAffinity(t *testing.T) {
	ids := []string{"a", "b", "c"}
	client, _, routerURL, reps := startCluster(t, ids, nil, cluster.Config{})
	solo, _ := newSoloServer(t)
	ctx := context.Background()

	const graphs = 8
	pools := []serve.PoolSpec{{Procs: 2}, {Procs: 2}}
	for seed := int64(0); seed < graphs; seed++ {
		g := randGraph(t, 40, seed)
		reg, err := client.RegisterGraph(ctx, g, nil)
		if err != nil {
			t.Fatalf("register graph %d: %v", seed, err)
		}
		// Scheduling by id succeeds only on the replica that registered
		// the graph — routing consistency between the two endpoints is
		// load-bearing here, not just an optimisation.
		req := serve.ScheduleRequest{GraphID: reg.ID, Pools: pools, Scheduler: "memheft"}
		got, err := client.Schedule(ctx, req)
		if err != nil {
			t.Fatalf("schedule graph %d by id: %v", seed, err)
		}
		if !got.SessionCached {
			t.Fatalf("graph %d: schedule after register missed the session cache", seed)
		}
		// Same request on a standalone server: the routed answer must be
		// bit-identical (same engine, same canonical session).
		sreg, err := solo.RegisterGraph(ctx, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.GraphID = sreg.ID
		want, err := solo.Schedule(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || fmt.Sprint(got.Peaks) != fmt.Sprint(want.Peaks) || got.GraphID != want.GraphID {
			t.Fatalf("graph %d: routed schedule diverged: got %v/%v, want %v/%v",
				seed, got.Makespan, got.Peaks, want.Makespan, want.Peaks)
		}
	}

	// Each graph resident on exactly one replica; together the replicas
	// hold all of them.
	total, spread := 0, 0
	for _, rep := range reps {
		st := rep.srv.Stats()
		total += st.SessionsCached
		if st.SessionsCached > 0 {
			spread++
		}
	}
	if total != graphs {
		t.Fatalf("cluster holds %d sessions, want %d (one per graph, no duplicates)", total, graphs)
	}
	if spread < 2 {
		t.Fatalf("all sessions on %d replica(s); the ring should spread %d graphs", spread, graphs)
	}

	// Unkeyed GETs pass through.
	if _, err := client.Schedulers(ctx); err != nil {
		t.Fatalf("schedulers via router: %v", err)
	}
	if _, err := client.Stats(ctx); err != nil {
		t.Fatalf("stats via router: %v", err)
	}
	if n := scrapeMetric(t, routerURL, "memschedd_router_forwarded_total", ""); n < graphs*2 {
		t.Fatalf("router forwarded %g requests, want >= %d", n, graphs*2)
	}
}

func newSoloServer(t *testing.T) (*serve.Client, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return serve.NewClient(ts.URL), srv
}

// TestRouterFailover kills one replica and checks every request still
// succeeds via the next ring owner, the router counts the failovers, and
// the health checker takes the replica out of rotation.
func TestRouterFailover(t *testing.T) {
	ids := []string{"a", "b", "c"}
	client, rt, routerURL, reps := startCluster(t, ids, nil, cluster.Config{})
	ctx := context.Background()

	const graphs = 6
	raws := make([]json.RawMessage, graphs)
	keys := make([]string, graphs)
	for seed := int64(0); seed < graphs; seed++ {
		raw, err := json.Marshal(randGraph(t, 40, seed))
		if err != nil {
			t.Fatal(err)
		}
		raws[seed] = raw
		key, err := serve.GraphKey(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[seed] = key
	}

	victim := ownerOf(t, ids, keys[0])
	reps[victim].kill()

	pools := []serve.PoolSpec{{Procs: 2}, {Procs: 2}}
	for i, raw := range raws {
		if _, err := client.Schedule(ctx, serve.ScheduleRequest{Graph: raw, Pools: pools}); err != nil {
			t.Fatalf("schedule graph %d with replica %s dead: %v", i, victim, err)
		}
	}

	if n := scrapeMetric(t, routerURL, "memschedd_router_failovers_total", fmt.Sprintf("replica=%q", victim)); n < 1 {
		t.Fatalf("no failovers counted against dead replica %s", victim)
	}
	// Graph 0's owner was the victim, so at least its requests were
	// served by a live replica; nothing may have been lost.
	if rt.Health().Routable(victim) {
		// Two passive failures (FailAfter default) must have been
		// observed across 6 requests — graph 0 alone retried it once.
		t.Fatalf("replica %s still routable after repeated transport failures", victim)
	}

	// The router's own healthz reports the degradation without failing.
	resp, err := http.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rh cluster.RouterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&rh); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rh.Status != "degraded" {
		t.Fatalf("router healthz = %d %q, want 200 degraded", resp.StatusCode, rh.Status)
	}
}

// TestRouterSweepFailoverExactlyOnce kills the replica serving a sweep
// stream mid-flight. The truncated stream must surface to the client,
// whose retry — back through the router, which now fails over to the
// next ring owner — resumes the stream with every point delivered to
// onPoint exactly once.
func TestRouterSweepFailoverExactlyOnce(t *testing.T) {
	ids := []string{"a", "b", "c"}
	_, _, routerURL, reps := startCluster(t, ids, nil, cluster.Config{})
	ctx := context.Background()

	// A graph big enough that each sweep point takes real time, so the
	// kill below lands mid-stream instead of after the whole response
	// has already been buffered.
	raw, err := json.Marshal(randGraph(t, 3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	key, err := serve.GraphKey(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := ownerOf(t, ids, key)

	retrying := serve.NewClient(routerURL, serve.WithRetry(serve.RetryPolicy{
		MaxAttempts: 5, BaseDelay: 5 * time.Millisecond,
	}))

	var kill sync.Once
	seen := make(map[int]int)
	sum, err := retrying.Sweep(ctx, serve.SweepRequest{
		Graph:      raw,
		Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Alphas:     sweepAlphas(8),
		Schedulers: []string{"memheft", "memminmin"},
		Workers:    1,
	}, func(pt serve.SweepPoint) error {
		seen[pt.Index]++
		kill.Do(func() { reps[victim].kill() })
		return nil
	})
	if err != nil {
		t.Fatalf("sweep with mid-stream replica kill: %v", err)
	}
	if sum == nil || sum.Points != 16 {
		t.Fatalf("sweep summary = %+v, want 16 points", sum)
	}
	for i := 0; i < sum.Points; i++ {
		if seen[i] != 1 {
			t.Fatalf("point %d delivered %d times, want exactly once (seen=%v)", i, seen[i], seen)
		}
	}
	if n := scrapeMetric(t, routerURL, "memschedd_router_failovers_total", fmt.Sprintf("replica=%q", victim)); n < 1 {
		t.Fatalf("no failover counted against killed sweep owner %s", victim)
	}
}

func sweepAlphas(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) / float64(n)
	}
	return out
}

// TestRouterSpilloverOn429 saturates a graph's owner with a near-zero
// rate limit and checks the router spills the refused request to the
// key's second ring owner instead of bouncing the 429 to the client.
func TestRouterSpilloverOn429(t *testing.T) {
	ids := []string{"a", "b"}
	raw, err := json.Marshal(randGraph(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	key, err := serve.GraphKey(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, ids, key)

	client, _, routerURL, reps := startCluster(t, ids, func(id string) serve.Config {
		if id == owner {
			return serve.Config{RateLimit: 0.0001, RateBurst: 1}
		}
		return serve.Config{}
	}, cluster.Config{})
	ctx := context.Background()

	pools := []serve.PoolSpec{{Procs: 2}, {Procs: 2}}
	// First request consumes the owner's only token...
	if _, err := client.Schedule(ctx, serve.ScheduleRequest{Graph: raw, Pools: pools}); err != nil {
		t.Fatalf("first schedule: %v", err)
	}
	// ...so the second is 429ed by the owner and must succeed by
	// spilling to the other replica, invisibly to the client.
	if _, err := client.Schedule(ctx, serve.ScheduleRequest{Graph: raw, Pools: pools}); err != nil {
		t.Fatalf("second schedule (owner saturated): %v", err)
	}

	if n := scrapeMetric(t, routerURL, "memschedd_router_spillovers_total", fmt.Sprintf("replica=%q", owner)); n < 1 {
		t.Fatalf("no spillover counted against saturated owner %s", owner)
	}
	for _, id := range ids {
		if id != owner && reps[id].srv.Stats().Scheduled < 1 {
			t.Fatalf("second-choice replica %s served nothing", id)
		}
	}
}

// TestClusterClient routes client-side over the same ring: requests for
// one graph always land on one replica, regardless of the order the
// client was given the URLs in.
func TestClusterClient(t *testing.T) {
	ctx := context.Background()
	var urls []string
	var reps []*testReplica
	for _, id := range []string{"a", "b", "c"} {
		rep := startReplica(t, id, serve.Config{})
		reps = append(reps, rep)
		urls = append(urls, rep.ts.URL)
	}

	fwd, err := serve.NewClusterClient(urls)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := serve.NewClusterClient([]string{urls[2], urls[0], urls[1]})
	if err != nil {
		t.Fatal(err)
	}

	g := randGraph(t, 40, 11)
	reg, err := fwd.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pools := []serve.PoolSpec{{Procs: 2}, {Procs: 2}}
	// A differently-ordered client agrees on the owner: scheduling by id
	// finds the registered graph (a disagreement would 404) warm.
	got, err := rev.Schedule(ctx, serve.ScheduleRequest{GraphID: reg.ID, Pools: pools})
	if err != nil {
		t.Fatalf("schedule via reordered cluster client: %v", err)
	}
	if !got.SessionCached {
		t.Fatal("reordered client missed the owner's warm session")
	}
	holders := 0
	for _, rep := range reps {
		if rep.srv.Stats().SessionsCached > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("graph resident on %d replicas, want exactly 1", holders)
	}
}

// TestRouterKeyCache sends the same inline bodies through the router
// repeatedly: after the first pass the routing key comes from the
// router's wire-digest cache, every request still lands on the owner of
// serve.GraphKey's key (one session per graph cluster-wide, all hits after
// the first), and the router exports the cache's hits.
func TestRouterKeyCache(t *testing.T) {
	ids := []string{"a", "b", "c"}
	_, _, routerURL, reps := startCluster(t, ids, nil, cluster.Config{})
	const graphs, rounds = 5, 3
	keys := make([]string, graphs)
	bodies := make([]string, graphs)
	for i := range bodies {
		raw, err := json.Marshal(randGraph(t, 40, int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if keys[i], err = serve.GraphKey(raw, nil); err != nil {
			t.Fatal(err)
		}
		bodies[i] = `{"graph": ` + string(raw) + `, "pools": [{"procs": 2}, {"procs": 2}]}`
	}
	for r := 0; r < rounds; r++ {
		for i, body := range bodies {
			resp, err := http.Post(routerURL+"/v1/schedule", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var sr serve.ScheduleResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d graph %d: HTTP %d %v", r, i, resp.StatusCode, err)
			}
			if sr.GraphID != keys[i] || sr.SessionCached != (r > 0) {
				t.Fatalf("round %d graph %d: id %q cached=%v, want id %q cached=%v", r, i, sr.GraphID, sr.SessionCached, keys[i], r > 0)
			}
		}
	}
	owned := make(map[string]int)
	for _, key := range keys {
		owned[ownerOf(t, ids, key)]++
	}
	for id, rep := range reps {
		if st := rep.srv.Stats(); st.SessionsCached != owned[id] {
			t.Fatalf("replica %s holds %d sessions, owns %d graphs", id, st.SessionsCached, owned[id])
		}
	}
	if hits := scrapeMetric(t, routerURL, "memschedd_router_key_cache_hits_total", ""); hits != graphs*(rounds-1) {
		t.Fatalf("router key cache hits = %g, want %d", hits, graphs*(rounds-1))
	}
	if misses := scrapeMetric(t, routerURL, "memschedd_router_key_cache_misses_total", ""); misses != graphs {
		t.Fatalf("router key cache misses = %g, want %d", misses, graphs)
	}
}
