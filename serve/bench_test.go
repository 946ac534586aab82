package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	memsched "repro"
)

// inlineBody3000 returns a 3000-task random graph's wire form and a
// schedule request body carrying it inline.
func inlineBody3000(b *testing.B) (json.RawMessage, []byte) {
	b.Helper()
	params := memsched.LargeRandParams()
	params.Size = 3000
	g, err := memsched.GenerateRandom(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := g.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Graph: raw, Pools: []PoolSpec{{Procs: 2}, {Procs: 2}}})
	if err != nil {
		b.Fatal(err)
	}
	return raw, body
}

// BenchmarkResolveInline3000Hit measures a replica resolving a resident
// 3000-task inline graph: the wire digest and two LRU lookups that replace
// the graph decode, validation and canonical hash.
func BenchmarkResolveInline3000Hit(b *testing.B) {
	raw, _ := inlineBody3000(b)
	s := NewServer(Config{})
	if _, _, ok := s.resolveInline(httptest.NewRecorder(), raw, nil); !ok {
		b.Fatal("cold resolve failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, ok := s.resolveInline(nil, raw, nil); !ok || !cached {
			b.Fatal("resident graph missed the front cache")
		}
	}
}

// BenchmarkRoutingKeyCached3000 measures a router keying a schedule body
// whose 3000-task inline graph it has keyed before: the body decode and
// the wire digest, without the graph decode.
func BenchmarkRoutingKeyCached3000(b *testing.B) {
	_, body := inlineBody3000(b)
	kc := NewKeyCache(64)
	want, _, err := kc.RoutingKey(body)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if key, _, err := kc.RoutingKey(body); err != nil || key != want {
			b.Fatalf("key %q (%v), want %q", key, err, want)
		}
	}
}
