package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cluster"
	"repro/serve"
)

// logSink is a goroutine-safe slog destination, one per tier under test.
// Both tiers write a request's access line after its handler returns, so
// the client can hold the response before the line exists: tests read a
// line with waitFor, never with String right after a response.
type logSink struct {
	mu      sync.Mutex
	b       bytes.Buffer
	written chan struct{} // closed (and dropped) by the next Write
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.written != nil {
		close(s.written)
		s.written = nil
	}
	return s.b.Write(p)
}

// logWait bounds how long waitFor lets a tier take to write a line.
const logWait = 10 * time.Second

// waitFor blocks until the sink holds a line containing sub, woken by each
// write, and returns that line; it fails the test after logWait.
func (s *logSink) waitFor(t *testing.T, sub string) string {
	t.Helper()
	deadline := time.NewTimer(logWait)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		for _, line := range strings.Split(s.b.String(), "\n") {
			if strings.Contains(line, sub) {
				s.mu.Unlock()
				return line
			}
		}
		if s.written == nil {
			s.written = make(chan struct{})
		}
		written := s.written
		s.mu.Unlock()
		select {
		case <-written:
		case <-deadline.C:
			t.Fatalf("no log line containing %s within %v:\n%s", sub, logWait, s.String())
		}
	}
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *logSink) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(s, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestClusterRequestIDPropagation drives one identified request through
// a router over three replicas and checks the same id lands in the
// response, the router's access log, and exactly one replica's access
// log — the join key the whole observability layer hangs off.
func TestClusterRequestIDPropagation(t *testing.T) {
	sinks := map[string]*logSink{"a": {}, "b": {}, "c": {}}
	var routerSink logSink
	client, _, _, _ := startCluster(t, []string{"a", "b", "c"},
		func(id string) serve.Config { return serve.Config{Logger: sinks[id].logger()} },
		cluster.Config{Logger: routerSink.logger()})

	ctx := context.Background()
	g := randGraph(t, 60, 3)
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}

	const reqID = "cluster-prop-1"
	res, err := client.Schedule(serve.ContextWithRequestID(ctx, reqID), serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != reqID {
		t.Fatalf("response request id = %q, want %q", res.RequestID, reqID)
	}

	rout := routerSink.waitFor(t, `"msg":"request","request_id":"`+reqID+`"`)
	// The router's line names the replica it forwarded to; that replica's
	// own access log must carry the same id (first hop: unsuffixed), and
	// no other replica's may.
	serving := ""
	for id := range sinks {
		if strings.Contains(rout, `"replica":"`+id+`"`) {
			serving = id
		}
	}
	if serving == "" {
		t.Fatalf("router access line names no replica: %s", rout)
	}
	sinks[serving].waitFor(t, `"msg":"request","request_id":"`+reqID+`"`)
	for id, sink := range sinks {
		if id != serving && strings.Contains(sink.String(), `"request_id":"`+reqID+`"`) {
			t.Fatalf("id %s appears on both replica %s and %s", reqID, serving, id)
		}
	}
}

// TestClusterErrorBodyRequestID checks the router's structured errors
// name the request too, all the way out to the typed client error.
func TestClusterErrorBodyRequestID(t *testing.T) {
	client, _, _, _ := startCluster(t, []string{"a", "b"}, nil, cluster.Config{})

	const reqID = "cluster-err-1"
	_, err := client.Schedule(serve.ContextWithRequestID(context.Background(), reqID), serve.ScheduleRequest{
		GraphID: strings.Repeat("0", 64),
		Pools:   []serve.PoolSpec{{Procs: 1}},
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", apiErr.Status)
	}
	if apiErr.RequestID != reqID {
		t.Fatalf("APIError.RequestID = %q, want %q", apiErr.RequestID, reqID)
	}
}

// TestRouterForwardsQueryString sends ?trace=1 through the router and
// requires the span timeline back: request modifiers in the query
// string must reach the replica that actually serves the request.
func TestRouterForwardsQueryString(t *testing.T) {
	_, _, base, _ := startCluster(t, []string{"a", "b"}, nil, cluster.Config{})

	body := `{"graph": {"tasks": [{"wblue": 2, "wred": 1}], "edges": []},
	          "pools": [{"procs": 1, "capacity": 8}, {"procs": 1, "capacity": 4}]}`
	resp, err := http.Post(base+"/v1/schedule?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	// The router stamps the id itself and must swallow the replica's
	// echo (the header map key is canonicalized to X-Request-Id, not
	// X-Request-ID) — the client sees exactly one value.
	if ids := resp.Header.Values(serve.RequestIDHeader); len(ids) != 1 {
		t.Fatalf("response carries %d X-Request-ID values %v, want exactly 1", len(ids), ids)
	}
	var sr serve.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Trace) == 0 {
		t.Fatal("?trace=1 lost on the router hop: no spans in the response")
	}
}

// TestClusterFailoverSuffix kills a replica and checks the failover
// hop's provenance: the replica that ends up serving sees the original
// id with an "-f<hop>" suffix, and the client still gets the base id
// back — the base stays a greppable substring across every tier.
func TestClusterFailoverSuffix(t *testing.T) {
	sinks := map[string]*logSink{"a": {}, "b": {}, "c": {}}
	var routerSink logSink
	client, _, _, reps := startCluster(t, []string{"a", "b", "c"},
		func(id string) serve.Config { return serve.Config{Logger: sinks[id].logger()} },
		cluster.Config{Logger: routerSink.logger()})

	ctx := context.Background()
	g := randGraph(t, 60, 5)
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, []string{"a", "b", "c"}, reg.ID)
	reps[owner].kill()

	const reqID = "cluster-fail-1"
	res, err := client.Schedule(serve.ContextWithRequestID(ctx, reqID), serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Seed:    1,
	})
	if err != nil {
		// The session died with its owner; in a real deployment the client
		// re-registers (schedload does). A structured 404 still proves the
		// failover hop reached a live replica — with its id intact.
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatal(err)
		}
		if apiErr.RequestID != reqID {
			t.Fatalf("failover error request id = %q, want %q", apiErr.RequestID, reqID)
		}
	} else if res.RequestID != reqID {
		t.Fatalf("failover response request id = %q, want %q", res.RequestID, reqID)
	}

	routerSink.waitFor(t, `"msg":"replica failed, failing over","request_id":"`+reqID+`"`)
	// The router's access line names the replica that finally answered;
	// its own access line carries the suffixed id.
	rout := routerSink.waitFor(t, `"msg":"request","request_id":"`+reqID+`"`)
	serving := ""
	for id := range sinks {
		if id != owner && strings.Contains(rout, `"replica":"`+id+`"`) {
			serving = id
		}
	}
	if serving == "" {
		t.Fatalf("router access line names no surviving replica: %s", rout)
	}
	sinks[serving].waitFor(t, `"request_id":"`+reqID+`-f1"`)
}
