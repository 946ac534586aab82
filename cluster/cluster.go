// Package cluster shards a set of memschedd replicas behind one
// cache-affinity router.
//
// The scheduling service's performance lives in its per-graph session
// cache (package serve): a warm session answers repeat schedule requests
// from memo lookups instead of re-deriving ranks and statics. A plain
// load balancer destroys that — each graph's requests land on a random
// replica, every replica caches every graph, and the LRU churns N times
// as fast. The cluster layer instead routes by the request's canonical
// graph hash over a consistent-hash ring (package cluster/ring), so each
// graph's session lives on exactly one replica and the union of the
// replicas' caches behaves like one cache N times the size.
//
// Router (NewRouter) is the data path: it extracts the routing key with
// a serve.KeyCache (serve.RoutingKey, memoized by each inline graph's
// wire digest), resolves the owning replica on the ring, and
// reverse-proxies the request, streaming sweep NDJSON through without
// buffering. A health checker probes every replica's /healthz with
// hysteresis; routing falls over to the key's next ring owner when the
// owner is down or draining, and spills to the second-choice owner —
// never a random replica — when the owner answers 429 or exceeds its
// bounded-load share. The router composes the serve middleware chain
// (rate limit → concurrency shed → body cap) in front of the proxy and
// exposes its own /metrics and /healthz.
//
// The same ring is available client-side: serve.NewClusterClient routes
// each request directly to its owner, skipping the router hop.
package cluster

import (
	"fmt"
	"net/url"
	"strings"
)

// DefaultLoadFactor is the bounded-load factor c used when a Config (or a
// simulator modeling one, see package repro/clustersim) does not override
// it: a replica carrying more than c times its fair share of in-flight
// work is skipped for the key's next ring owner.
const DefaultLoadFactor = 1.25

// Replica is one memschedd instance of the replica set. ID keys the
// consistent-hash ring, so it must be stable across restarts and
// redeploys — a replica that comes back under the same ID keeps its arc
// of the key space (and its warm cache); URL is where it listens now.
type Replica struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// ParseReplicas parses a comma-separated replica set, each entry either
// "id=url" or a bare url (which then doubles as the id — fine for fixed
// addresses, but named IDs survive port changes):
//
//	a=http://10.0.0.1:8080,b=http://10.0.0.2:8080
//	http://127.0.0.1:8081,http://127.0.0.2:8082
//
// URLs must be absolute http(s) URLs; trailing slashes are stripped.
// Duplicate IDs are rejected so a typo cannot silently merge two
// replicas into one ring member.
func ParseReplicas(spec string) ([]Replica, error) {
	var out []Replica
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("cluster: empty replica entry in %q", spec)
		}
		rep := Replica{URL: entry}
		// "id=url" — but never split inside the URL itself (query strings
		// are rejected below anyway; scheme and host cannot contain '=').
		if id, rest, ok := strings.Cut(entry, "="); ok && !strings.Contains(id, "/") {
			rep = Replica{ID: strings.TrimSpace(id), URL: strings.TrimSpace(rest)}
			if rep.ID == "" {
				return nil, fmt.Errorf("cluster: empty replica id in entry %q", entry)
			}
		}
		rep.URL = strings.TrimRight(rep.URL, "/")
		u, err := url.Parse(rep.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica url %q is not an absolute http(s) url", rep.URL)
		}
		if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
			return nil, fmt.Errorf("cluster: replica url %q must be a bare base url", rep.URL)
		}
		if rep.ID == "" {
			rep.ID = rep.URL
		}
		if seen[rep.ID] {
			return nil, fmt.Errorf("cluster: duplicate replica id %q", rep.ID)
		}
		seen[rep.ID] = true
		out = append(out, rep)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no replicas in %q", spec)
	}
	return out, nil
}
