package serve_test

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/serve"
)

// keyBodies returns keyed request bodies of every shape a router sees:
// inline graphs (compact and reformatted, dual and with times matrices),
// graph ids, and bodies that must not route.
func keyBodies(t *testing.T) []string {
	t.Helper()
	var bodies []string
	for seed := int64(1); seed <= 4; seed++ {
		raw, err := randomGraph(t, 30, seed).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		g := string(raw)
		bodies = append(bodies,
			`{"graph": `+g+`, "pools": [{"procs": 1}, {"procs": 1}]}`,
			`{"graph": `+reformat(t, g)+`, "pools": [{"procs": 2}]}`,
			`{"graph": `+g+`, "times": [], "pools": [{"procs": 1}]}`,
		)
	}
	g := paperGraphJSON(t)
	bodies = append(bodies,
		`{"graph": `+g+`, "times": [[1,2],[2,1],[3,3],[1,1]]}`,
		`{"graph": `+g+`, "times": [[1,2],[2,1],[3,3],[1,2]]}`,
		`{"graph": `+g+`, "times": [[1,2],[2,1],[3,3]]}`,
		`{"graph": `+g+`, "times": [[1,2,7],[2,1],[3,3],[1,1]]}`,
		`{"graph_id": "abc", "pools": [{"procs": 1}]}`,
		`{"graph_id": "abc", "graph": `+g+`}`,
		`{"pools": [{"procs": 1}]}`,
		`{"graph": {"tasks": [{"wblue": 1, "wred": 1}], "edges": [{"from": 0, "to": 0, "file": 1, "comm": 1}]}}`,
		`{"graph": {"tasks": [`,
		`{"graph": null}`,
		`{"graph": 7}`,
	)
	return bodies
}

// TestKeyCacheMatchesRoutingKey checks that the cached routing key equals
// the uncached RoutingKey (and so GraphKey) for every body, cold and warm.
func TestKeyCacheMatchesRoutingKey(t *testing.T) {
	bodies := keyBodies(t)
	kc := serve.NewKeyCache(64)
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			wantKey, wantPortable, wantErr := serve.RoutingKey([]byte(body))
			key, portable, err := kc.RoutingKey([]byte(body))
			if key != wantKey || portable != wantPortable || (err == nil) != (wantErr == nil) {
				t.Fatalf("round %d body %d: cached (%q, %v, %v), uncached (%q, %v, %v)",
					round, i, key, portable, err, wantKey, wantPortable, wantErr)
			}
			if err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("round %d body %d: error %q, uncached %q", round, i, err, wantErr)
			}
			var req struct {
				Graph json.RawMessage `json:"graph"`
				Times [][]float64     `json:"times"`
			}
			if json.Unmarshal([]byte(body), &req) == nil && len(req.Graph) > 0 {
				if gk, gkErr := serve.GraphKey(req.Graph, req.Times); gkErr == nil && wantPortable && gk != key {
					t.Fatalf("body %d: cached key %q, GraphKey %q", i, key, gk)
				}
			}
		}
	}
	if hits, misses := kc.Stats(); hits == 0 {
		t.Fatalf("key cache never hit: hits %d misses %d", hits, misses)
	}
}

// TestKeyCacheBounded checks the LRU bound: with room for one key, two
// alternating graphs miss every time and still key correctly.
func TestKeyCacheBounded(t *testing.T) {
	kc := serve.NewKeyCache(1)
	a, _ := randomGraph(t, 20, 1).MarshalJSON()
	b, _ := randomGraph(t, 20, 2).MarshalJSON()
	for round := 0; round < 3; round++ {
		for _, raw := range [][]byte{a, b} {
			want, err := serve.GraphKey(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := kc.GraphKey(raw, nil); err != nil || got != want {
				t.Fatalf("round %d: key %q (%v), want %q", round, got, err, want)
			}
		}
	}
	if hits, misses := kc.Stats(); hits != 0 || misses != 6 {
		t.Fatalf("hits %d misses %d, want 0 and 6", hits, misses)
	}
}

// TestKeyCacheConcurrent keys the same bodies from many goroutines; run
// under -race.
func TestKeyCacheConcurrent(t *testing.T) {
	bodies := keyBodies(t)
	want := make([]string, len(bodies))
	for i, body := range bodies {
		want[i], _, _ = serve.RoutingKey([]byte(body))
	}
	kc := serve.NewKeyCache(4)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				for i := range bodies {
					j := (i + w) % len(bodies)
					if key, _, _ := kc.RoutingKey([]byte(bodies[j])); key != want[j] {
						t.Errorf("body %d: key %q, want %q", j, key, want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
