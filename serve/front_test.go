package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	memsched "repro"
	"repro/serve"
)

// The front cache maps an inline graph's exact wire bytes (plus its times
// matrix) to the canonical id the slow path computed for them. These tests
// pin that it only ever short-cuts to the answer the slow path would give.

// frontServer mounts a Server on an httptest server for raw-body posts.
func frontServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// postRaw posts body verbatim and returns the status and payload.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// scheduleRaw posts an inline-graph schedule body built around the given
// graph and times JSON fragments and decodes the 200 response.
func scheduleRaw(t *testing.T, ts *httptest.Server, graph, times string) serve.ScheduleResponse {
	t.Helper()
	body := `{"graph": ` + graph + `, "pools": [{"procs": 1}, {"procs": 1}], "seed": 3`
	if times != "" {
		body += `, "times": ` + times
	}
	status, payload := postRaw(t, ts, "/v1/schedule", body+"}")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, payload)
	}
	var sr serve.ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func paperGraphJSON(t *testing.T) string {
	t.Helper()
	raw, err := memsched.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// reformat re-indents a JSON document: the same graph, different bytes.
func reformat(t *testing.T, doc string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, []byte(doc), "", "    "); err != nil {
		t.Fatal(err)
	}
	if buf.String() == doc {
		t.Fatal("reformatting left the bytes unchanged")
	}
	return buf.String()
}

func TestFrontCacheSameBytesHit(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	graph := paperGraphJSON(t)

	first := scheduleRaw(t, ts, graph, "")
	if first.SessionCached {
		t.Fatal("first sight of a graph reported a cached session")
	}
	if st := srv.Stats(); st.FrontCacheHits != 0 || st.FrontCacheMisses != 1 {
		t.Fatalf("after first request: front hits %d misses %d, want 0 and 1", st.FrontCacheHits, st.FrontCacheMisses)
	}
	second := scheduleRaw(t, ts, graph, "")
	if !second.SessionCached {
		t.Fatal("same bytes again did not report a cached session")
	}
	st := srv.Stats()
	if st.FrontCacheHits != 1 || st.FrontCacheMisses != 1 {
		t.Fatalf("after same bytes: front hits %d misses %d, want 1 and 1", st.FrontCacheHits, st.FrontCacheMisses)
	}
	if st.SessionHits != 1 || st.SessionMisses != 1 || st.SessionsCached != 1 {
		t.Fatalf("session counters: hits %d misses %d cached %d, want 1, 1, 1", st.SessionHits, st.SessionMisses, st.SessionsCached)
	}
	if second.GraphID != first.GraphID || second.Makespan != first.Makespan || fmt.Sprint(second.Peaks) != fmt.Sprint(first.Peaks) {
		t.Fatalf("front hit changed the result: %+v vs %+v", second, first)
	}
	if second.GraphID != memsched.GraphHash(memsched.PaperExample()) {
		t.Fatalf("graph id %q is not the canonical hash", second.GraphID)
	}
}

func TestFrontCacheReformattedBytesLandOnSameSession(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	graph := paperGraphJSON(t)
	first := scheduleRaw(t, ts, graph, "")

	pretty := reformat(t, graph)
	second := scheduleRaw(t, ts, pretty, "")
	st := srv.Stats()
	if st.FrontCacheHits != 0 || st.FrontCacheMisses != 2 {
		t.Fatalf("reformatted bytes: front hits %d misses %d, want 0 and 2", st.FrontCacheHits, st.FrontCacheMisses)
	}
	if !second.SessionCached || second.GraphID != first.GraphID || st.SessionsCached != 1 {
		t.Fatalf("reformatted graph did not land on the resident session: cached=%v id=%q (want %q), %d sessions",
			second.SessionCached, second.GraphID, first.GraphID, st.SessionsCached)
	}
	// Both spellings are now known.
	scheduleRaw(t, ts, pretty, "")
	scheduleRaw(t, ts, graph, "")
	if st := srv.Stats(); st.FrontCacheHits != 2 || st.SessionsCached != 1 {
		t.Fatalf("both spellings again: front hits %d, %d sessions; want 2 and 1", st.FrontCacheHits, st.SessionsCached)
	}
}

func TestFrontCacheKeysTheTimesMatrix(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	graph := paperGraphJSON(t)
	timesA := `[[1,2],[2,1],[3,3],[1,1]]`
	timesB := `[[1,2],[2,1],[3,3],[1,2]]`

	a := scheduleRaw(t, ts, graph, timesA)
	b := scheduleRaw(t, ts, graph, timesB)
	dual := scheduleRaw(t, ts, graph, "")
	st := srv.Stats()
	if st.FrontCacheHits != 0 || st.SessionsCached != 3 {
		t.Fatalf("three matrices: front hits %d, %d sessions; want 0 and 3", st.FrontCacheHits, st.SessionsCached)
	}
	if a.GraphID == b.GraphID || a.GraphID == dual.GraphID || b.GraphID == dual.GraphID {
		t.Fatalf("distinct matrices share an id: %q %q %q", a.GraphID, b.GraphID, dual.GraphID)
	}
	if again := scheduleRaw(t, ts, graph, timesA); !again.SessionCached || again.GraphID != a.GraphID {
		t.Fatalf("matrix A again: cached=%v id=%q, want the session of %q", again.SessionCached, again.GraphID, a.GraphID)
	}
	if st := srv.Stats(); st.FrontCacheHits != 1 {
		t.Fatalf("matrix A again: %d front hits, want 1", st.FrontCacheHits)
	}

	// An empty matrix is not "no matrix": it must still fail validation,
	// even though the dual spelling of the same graph bytes is cached.
	status, payload := postRaw(t, ts, "/v1/schedule", `{"graph": `+graph+`, "times": [], "pools": [{"procs": 1}, {"procs": 1}]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(payload), "pool-time matrix") {
		t.Fatalf("empty times matrix: HTTP %d %s, want a 400 naming the matrix", status, payload)
	}
}

func TestFrontCacheNeverCachesErrors(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	// A two-task cycle decodes but fails validation.
	cyclic := `{"tasks": [{"wblue": 1, "wred": 1}, {"wblue": 1, "wred": 1}],
		"edges": [{"from": 0, "to": 1, "file": 1, "comm": 1}, {"from": 1, "to": 0, "file": 1, "comm": 1}]}`
	for _, graph := range []string{cyclic, `{"tasks": [`} {
		body := `{"graph": ` + graph + `, "pools": [{"procs": 1}, {"procs": 1}]}`
		var first serve.ErrorResponse
		for round := 0; round < 2; round++ {
			status, payload := postRaw(t, ts, "/v1/schedule", body)
			if status != http.StatusBadRequest {
				t.Fatalf("round %d: HTTP %d %s, want 400", round, status, payload)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(payload, &er); err != nil {
				t.Fatal(err)
			}
			if er.Code != serve.CodeBadRequest || er.Error == "" {
				t.Fatalf("round %d: unstructured error %+v", round, er)
			}
			if round == 0 {
				first = er
			} else if er.Error != first.Error {
				t.Fatalf("the same invalid body answered differently:\n%q\n%q", first.Error, er.Error)
			}
		}
	}
	if st := srv.Stats(); st.FrontCacheHits != 0 || st.SessionsCached != 0 {
		t.Fatalf("invalid graphs: front hits %d, %d sessions; want 0 and 0", st.FrontCacheHits, st.SessionsCached)
	}
}

func TestFrontCacheEvictedSessionIsRebuilt(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{CacheSize: 1})
	graphA := paperGraphJSON(t)
	rawB, err := randomGraph(t, 20, 4).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a := scheduleRaw(t, ts, graphA, "")
	scheduleRaw(t, ts, string(rawB), "") // evicts A's session
	again := scheduleRaw(t, ts, graphA, "")
	if again.SessionCached {
		t.Fatal("an evicted session was reported as cached")
	}
	if again.GraphID != a.GraphID || again.Makespan != a.Makespan || fmt.Sprint(again.Peaks) != fmt.Sprint(a.Peaks) {
		t.Fatalf("rebuilt session answered differently: %+v vs %+v", again, a)
	}
	st := srv.Stats()
	if st.FrontCacheHits != 0 || st.SessionMisses != 3 || st.SessionEvictions != 2 {
		t.Fatalf("front hits %d, session misses %d, evictions %d; want 0, 3, 2", st.FrontCacheHits, st.SessionMisses, st.SessionEvictions)
	}
	// Rebuilt and resident again: now the same bytes hit.
	if hit := scheduleRaw(t, ts, graphA, ""); !hit.SessionCached {
		t.Fatal("rebuilt session not served warm")
	}
}

func TestFrontCacheKeepsGraphIDAndGraphExclusive(t *testing.T) {
	ts, _ := frontServer(t, serve.Config{})
	graph := paperGraphJSON(t)
	first := scheduleRaw(t, ts, graph, "")
	body := `{"graph_id": "` + first.GraphID + `", "graph": ` + graph + `, "pools": [{"procs": 1}, {"procs": 1}]}`
	status, payload := postRaw(t, ts, "/v1/schedule", body)
	if status != http.StatusBadRequest || !strings.Contains(string(payload), "exactly one") {
		t.Fatalf("graph_id + cached graph: HTTP %d %s, want the exactly-one 400", status, payload)
	}
}

// TestRegisterUsesFrontPath checks that registering resident bytes skips
// the build and that registration's build/intern sits in a resolve span.
func TestRegisterUsesFrontPath(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	graph := paperGraphJSON(t)
	var ids []string
	for round := 0; round < 2; round++ {
		status, payload := postRaw(t, ts, "/v1/graphs", `{"graph": `+graph+`}`)
		if status != http.StatusOK {
			t.Fatalf("register: HTTP %d %s", status, payload)
		}
		var reg serve.RegisterResponse
		if err := json.Unmarshal(payload, &reg); err != nil {
			t.Fatal(err)
		}
		if reg.Cached != (round == 1) {
			t.Fatalf("round %d: cached=%v", round, reg.Cached)
		}
		ids = append(ids, reg.ID)
	}
	if ids[0] != ids[1] {
		t.Fatalf("ids differ: %v", ids)
	}
	if st := srv.Stats(); st.FrontCacheHits != 1 || st.SessionHits != 0 || st.SessionMisses != 0 {
		t.Fatalf("front hits %d, session hits %d, misses %d; want 1, 0, 0 (registration is not a schedule-path lookup)",
			st.FrontCacheHits, st.SessionHits, st.SessionMisses)
	}
	// A schedule of the same bytes hits the registration's entry.
	if sr := scheduleRaw(t, ts, graph, ""); !sr.SessionCached || sr.GraphID != ids[0] {
		t.Fatalf("schedule after register: cached=%v id=%q", sr.SessionCached, sr.GraphID)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces serve.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	captures := 0
	for route, caps := range traces.Routes {
		if !strings.Contains(route, "graphs") {
			continue
		}
		for _, c := range caps {
			captures++
			var names []string
			for _, sp := range c.Spans {
				names = append(names, sp.Name)
			}
			if !strings.Contains(strings.Join(names, ","), "resolve") {
				t.Fatalf("registration trace has no resolve span: %v", names)
			}
		}
	}
	if captures == 0 {
		t.Fatalf("no registration traces captured: %+v", traces.Routes)
	}
}

// TestFrontCacheConcurrentSameBody races many clients sending the same
// bytes, cold: every response must agree and exactly one session result.
func TestFrontCacheConcurrentSameBody(t *testing.T) {
	ts, srv := frontServer(t, serve.Config{})
	raw, err := randomGraph(t, 60, 9).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := `{"graph": ` + string(raw) + `, "pools": [{"procs": 2}, {"procs": 2}], "seed": 5}`
	const clients, rounds = 8, 5
	results := make([]string, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sr serve.ScheduleResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("HTTP %d: %v", resp.StatusCode, err)
					return
				}
				results[c*rounds+r] = fmt.Sprint(sr.GraphID, sr.Makespan, sr.Peaks)
			}
		}(c)
	}
	wg.Wait()
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("response %d = %s, response 0 = %s", i, r, results[0])
		}
	}
	st := srv.Stats()
	if st.SessionsCached != 1 || st.FrontCacheHits+st.FrontCacheMisses != clients*rounds || st.FrontCacheHits == 0 {
		t.Fatalf("%d sessions, front hits %d + misses %d; want 1 session, %d lookups, some hits",
			st.SessionsCached, st.FrontCacheHits, st.FrontCacheMisses, clients*rounds)
	}
}

func randomGraph(t *testing.T, size int, seed int64) *memsched.Graph {
	t.Helper()
	params := memsched.SmallRandParams()
	params.Size = size
	g, err := memsched.GenerateRandom(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
