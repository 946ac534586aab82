package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	memsched "repro"
	"repro/serve"
)

// syncBuf is a goroutine-safe log sink for the slog handlers under test
// (the server logs from concurrent request goroutines). The access line of
// a request is written after its handler returns, so the client can hold
// the response first: tests read lines with waitFor.
type syncBuf struct {
	mu      sync.Mutex
	b       bytes.Buffer
	written chan struct{} // closed (and dropped) by the next Write
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.written != nil {
		close(s.written)
		s.written = nil
	}
	return s.b.Write(p)
}

// waitFor blocks until the sink holds a line containing every one of subs,
// woken by each write, and returns that line; it fails the test after ten
// seconds.
func (s *syncBuf) waitFor(t *testing.T, subs ...string) string {
	t.Helper()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		for _, line := range strings.Split(s.b.String(), "\n") {
			found := true
			for _, sub := range subs {
				found = found && strings.Contains(line, sub)
			}
			if found {
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
			t.Fatalf("no log line containing %q within 10s:\n%s", subs, s.String())
		}
	}
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func jsonLogger(buf *syncBuf) *slog.Logger {
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	_, srv := newTestServer(t, serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A valid caller-supplied id is echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/schedulers", nil)
	req.Header.Set(serve.RequestIDHeader, "caller-id.42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serve.RequestIDHeader); got != "caller-id.42" {
		t.Fatalf("echoed id = %q, want caller-id.42", got)
	}

	// No id: the server generates one.
	resp, err = ts.Client().Get(ts.URL + "/v1/schedulers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serve.RequestIDHeader); got == "" {
		t.Fatal("no request id generated for an id-less request")
	}

	// An invalid id (spaces, shell metacharacters) is replaced, not
	// echoed: log injection through the id header must not be possible.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/schedulers", nil)
	req.Header.Set(serve.RequestIDHeader, `bad id "with junk`)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get(serve.RequestIDHeader)
	if got == "" || strings.Contains(got, " ") {
		t.Fatalf("invalid id not replaced: %q", got)
	}
}

func TestRequestIDInErrorBodyAndAPIError(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := serve.ContextWithRequestID(context.Background(), "err-prop-1")

	_, err := client.Schedule(ctx, serve.ScheduleRequest{
		GraphID: strings.Repeat("0", 64), // registered nowhere
		Pools:   cap4(),
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", apiErr.Status)
	}
	if apiErr.RequestID != "err-prop-1" {
		t.Fatalf("APIError.RequestID = %q, want err-prop-1", apiErr.RequestID)
	}
	if !strings.Contains(apiErr.Error(), "err-prop-1") {
		t.Fatalf("Error() does not name the request: %s", apiErr.Error())
	}
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf syncBuf
	client, _ := newTestServer(t, serve.Config{Logger: jsonLogger(&buf), ReplicaID: "test-rep"})
	ctx := serve.ContextWithRequestID(context.Background(), "log-line-1")

	if _, err := client.RegisterGraph(ctx, memsched.PaperExample(), nil); err != nil {
		t.Fatal(err)
	}
	line := buf.waitFor(t, `"msg":"request"`, `"request_id":"log-line-1"`)
	for _, want := range []string{`"route":"/v1/graphs"`, `"status":200`, `"replica":"test-rep"`, `"method":"POST"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("access line missing %s: %s", want, line)
		}
	}
}

// TestRefusalLogsAndChainOrder drives a rate-limited server and checks
// that (a) the refusal's warn line carries the request id — the id
// middleware wraps the whole chain, including refusals that never reach
// a handler — and (b) the 429 body still names the request.
func TestRefusalLogsAndChainOrder(t *testing.T) {
	var buf syncBuf
	_, srv := newTestServer(t, serve.Config{
		Logger:    jsonLogger(&buf),
		RateLimit: 0.001, // one token forever: the second request is refused
		RateBurst: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var refused *http.Response
	for i := 0; i < 3; i++ {
		// The rate limiter fronts the POST /v1 chains; it refuses before
		// the body is ever decoded.
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", strings.NewReader("{}"))
		req.Header.Set(serve.RequestIDHeader, fmt.Sprintf("limited-%d", i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			refused = resp
			break
		}
		resp.Body.Close()
	}
	if refused == nil {
		t.Fatal("rate limiter never refused")
	}
	defer refused.Body.Close()
	var body serve.ErrorResponse
	if err := json.NewDecoder(refused.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	id := refused.Header.Get(serve.RequestIDHeader)
	if body.RequestID != id || id == "" {
		t.Fatalf("429 body request_id = %q, header %q", body.RequestID, id)
	}
	buf.waitFor(t, `"msg":"rate limited"`, fmt.Sprintf("%q", id))
}

// TestTraceSpansExplainLatency schedules a graph large enough that
// engine time dominates, asks for its span timeline with ?trace=1, and
// checks the timeline actually explains where the time went: top-level
// spans nest in request order, and the retained capture's span sum
// (which includes the encode span the payload cannot carry) lands
// within 10% of the request wall time the server measured.
func TestTraceSpansExplainLatency(t *testing.T) {
	_, srv := newTestServer(t, serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	params := memsched.SmallRandParams()
	params.Size = 4000
	g, err := memsched.GenerateRandom(params, 7)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded pools: the run should measure engine latency, not bounce
	// off a memory_bound rejection.
	pools := []serve.PoolSpec{{Procs: 2}, {Procs: 2}}
	body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Pools: pools, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	observed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, payload)
	}
	var sr serve.ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.RequestID == "" {
		t.Fatal("traced response has no request id")
	}
	if len(sr.Trace) == 0 {
		t.Fatal("?trace=1 returned no spans")
	}

	names := make(map[string]bool)
	var sum time.Duration
	prevStart := int64(-1)
	for _, sp := range sr.Trace {
		names[sp.Name] = true
		if !strings.Contains(sp.Name, "/") { // top-level spans partition the request
			sum += time.Duration(sp.DurMicros) * time.Microsecond
			if sp.StartMicros < prevStart {
				t.Fatalf("top-level span %q starts before its predecessor: %+v", sp.Name, sr.Trace)
			}
			prevStart = sp.StartMicros
		}
	}
	for _, want := range []string{"admission", "decode", "resolve", "engine"} {
		if !names[want] {
			t.Fatalf("trace missing %q span: %+v", want, sr.Trace)
		}
	}
	// The payload cannot carry the encode span (it is recorded while the
	// payload is being written), so against client-observed latency the
	// sum is a sanity bound, not the tight one.
	if ratio := float64(sum) / float64(observed); ratio < 0.6 || ratio > 1.02 {
		t.Fatalf("span sum %v vs observed %v (ratio %.3f)", sum, observed, ratio)
	}

	// The same request must rank in the slow-trace ring, where the full
	// span set and the server-measured wall time live side by side; there
	// the timeline must account for the request within 10%.
	resp, err = ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces serve.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range traces.Routes["/v1/schedule"] {
		if c.RequestID != sr.RequestID {
			continue
		}
		found = true
		if len(c.Spans) == 0 || c.DurMicros <= 0 {
			t.Fatalf("retained capture is empty: %+v", c)
		}
		var capSum int64
		for _, sp := range c.Spans {
			if !strings.Contains(sp.Name, "/") {
				capSum += sp.DurMicros
			}
		}
		if ratio := float64(capSum) / float64(c.DurMicros); ratio < 0.9 || ratio > 1.02 {
			t.Fatalf("captured span sum %dus vs request wall %dus (ratio %.3f), want within 10%%",
				capSum, c.DurMicros, ratio)
		}
	}
	if !found {
		t.Fatalf("request %s not retained in /debug/traces: %+v", sr.RequestID, traces)
	}
	if traces.Keep != 8 {
		t.Fatalf("default keep = %d, want 8", traces.Keep)
	}
}

func TestDebugMuxServesPprofAndTraces(t *testing.T) {
	_, srv := newTestServer(t, serve.Config{})
	dbg := httptest.NewServer(serve.NewDebugMux(srv.TracesHandler()))
	defer dbg.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/traces"} {
		resp, err := dbg.Client().Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
	// Without a trace handler, /debug/traces 404s but pprof stays up.
	bare := httptest.NewServer(serve.NewDebugMux(nil))
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traces without handler: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestMetricsExportBuildInfo(t *testing.T) {
	_, srv := newTestServer(t, serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memschedd_build_info{", "go_goroutines ", "go_memstats_heap_alloc_bytes "} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
