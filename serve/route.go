package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	memsched "repro"
	"repro/internal/memo"
)

// ErrNoRoutingKey reports a request body that carries neither a graph id
// nor an inline graph — nothing to route by. Such a request is invalid on
// every replica, so a router may send it anywhere and let the replica
// produce the structured 400.
var ErrNoRoutingKey = errors.New("serve: request has no graph_id or graph to route by")

// keyedRequest is the field subset shared by every keyed /v1 POST body
// (register, schedule, simulate, sweep): the graph reference a
// cache-affinity router shards on.
type keyedRequest struct {
	GraphID string          `json:"graph_id"`
	Graph   json.RawMessage `json:"graph"`
	Times   [][]float64     `json:"times"`
}

// RoutingKey extracts the cache-affinity key of a keyed /v1 request body:
// the graph id when the request references a registered graph, or the
// canonical graph hash — identical to the id registering the graph would
// return — when the graph is inlined. Every replica and every router
// computing RoutingKey over the same body agrees on the key, which is what
// lets a consistent-hash ring pin each graph's session cache to one
// replica with no coordination.
//
// portable reports whether the request carries its graph inline: any
// replica can serve it from a cold cache. A graph_id-only request is
// pinned — only the replica holding the registration can answer, so a
// load balancer must not spill it to a second-choice replica (that would
// trade a warm hit for a guaranteed 404).
//
// A malformed body or an invalid graph returns an error; the caller should
// forward such requests anyway (unrouted) so the serving replica produces
// the structured 4xx the client expects. RoutingKey caches nothing: every
// call decodes, validates and hashes an inline graph (see KeyCache for the
// memoized form a router uses).
func RoutingKey(body []byte) (key string, portable bool, err error) {
	return routingKey(body, GraphKey)
}

func routingKey(body []byte, graphKey func(json.RawMessage, [][]float64) (string, error)) (key string, portable bool, err error) {
	var req keyedRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false, fmt.Errorf("serve: decoding routing key: %w", err)
	}
	if req.GraphID != "" {
		return req.GraphID, false, nil
	}
	if len(req.Graph) == 0 {
		return "", false, ErrNoRoutingKey
	}
	key, err = graphKey(req.Graph, req.Times)
	return key, err == nil, err
}

// GraphKey computes the canonical content hash of an inline graph (wire
// format of memsched.Graph) plus an optional pool-time matrix — the value
// POST /v1/graphs would return as the graph's id. It validates the graph
// exactly as registration would, so an invalid graph errs here instead of
// routing. GraphKey caches nothing.
func GraphKey(raw json.RawMessage, times [][]float64) (string, error) {
	sess, err := newSession(raw, times)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	return sess.GraphHash(), nil
}

// newSession is the one path from an inline graph's wire form to a
// validated Session: decode the graph, attach the optional pool-time
// matrix, validate. Replica resolve, registration and GraphKey all use it,
// so every tier agrees on which graphs are valid and what they hash to.
func newSession(raw json.RawMessage, times [][]float64) (*memsched.Session, error) {
	g := memsched.NewGraph()
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("malformed graph: %w", err)
	}
	var opts []memsched.SessionOption
	if times != nil {
		opts = append(opts, memsched.WithPoolTimes(times))
	}
	sess, err := memsched.NewSession(g, opts...)
	if err != nil {
		return nil, fmt.Errorf("invalid graph: %w", err)
	}
	return sess, nil
}

// wireDigest names the exact wire form of an inline graph: SHA-256 over
// the length-prefixed raw graph bytes, then the times matrix — a nil/non-nil
// marker, the row count, and each row's length and float64 bits. It keys
// the front caches that map a graph's bytes to its canonical hash without
// decoding them. The digest is cryptographic on purpose: a front-cache hit
// skips validation and hands out the session resident under the cached
// id, so a crafted collision must not be able to point one client's bytes
// at another client's session.
type wireDigest [sha256.Size]byte

func digestOf(raw json.RawMessage, times [][]float64) wireDigest {
	h := sha256.New()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(raw)))
	h.Write(buf)
	h.Write(raw)
	buf = buf[:0]
	if times == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(times)))
		for _, row := range times {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(row)))
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	h.Write(buf)
	var d wireDigest
	h.Sum(d[:0])
	return d
}

// KeyCache memoizes the canonical key of inline graphs by wire digest, in
// a bounded LRU: the front cache of a router, whose hot path keys the same
// graph bytes over and over. A hit returns the key without decoding the
// graph. Entries are written only after GraphKey decoded, validated and
// hashed those exact bytes, and errors are never cached, so a cached key
// is always the one GraphKey would return. Safe for concurrent use.
type KeyCache struct {
	mu           sync.Mutex
	keys         *memo.LRU[wireDigest, string]
	hits, misses uint64
}

// NewKeyCache returns an empty KeyCache holding at most size keys.
func NewKeyCache(size int) *KeyCache {
	return &KeyCache{keys: memo.NewLRU[wireDigest, string](size)}
}

// RoutingKey is the package-level RoutingKey with inline graphs keyed
// through the cache.
func (c *KeyCache) RoutingKey(body []byte) (key string, portable bool, err error) {
	return routingKey(body, c.GraphKey)
}

// GraphKey is the package-level GraphKey served from the cache when these
// exact graph bytes and times were keyed before.
func (c *KeyCache) GraphKey(raw json.RawMessage, times [][]float64) (string, error) {
	d := digestOf(raw, times)
	c.mu.Lock()
	key, ok := c.keys.Get(d)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		return key, nil
	}
	key, err := GraphKey(raw, times)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.keys.Put(d, key)
	c.mu.Unlock()
	return key, nil
}

// Stats reports the cache's lookup outcomes so far.
func (c *KeyCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
