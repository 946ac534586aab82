package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	memsched "repro"
	"repro/serve"
	"repro/sweep"
)

// layerBench times calls to each layer's public function from outside,
// on the workload's own inputs. Every call is a span under its round's
// root, so the layer calls land in the same span file as the requests.
type layerBench struct {
	tr       *tracer
	deadline time.Time
	round    int
	root     int
	samples  map[string][]float64 // per-call values by metric name
	// Accumulated counts behind the ratio metrics.
	candHits, candMisses float64
	replayed, placements float64
}

func newLayerBench(tr *tracer, budget time.Duration) *layerBench {
	return &layerBench{tr: tr, deadline: time.Now().Add(budget), samples: map[string][]float64{}}
}

// next starts round r and reports whether to run it: the first round
// always runs, later ones only within the budget.
func (lb *layerBench) next(r int, name string) bool {
	if r > 0 && time.Now().After(lb.deadline) {
		return false
	}
	lb.round = r
	lb.root = lb.tr.begin(name, -1, r)
	return true
}

func (lb *layerBench) done() { lb.tr.end(lb.root) }

// time runs fn as one call of layer metric name (in ms). A memory-bound
// refusal is an answer like any other: the workload's requests get it
// too, and the library reference expects it.
func (lb *layerBench) time(name string, fn func() error) error {
	sp := lb.tr.begin(name, lb.root, lb.round)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	lb.tr.end(sp)
	if errors.Is(err, memsched.ErrMemoryBound) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	lb.samples[name] = append(lb.samples[name], ms(d))
	return nil
}

func (lb *layerBench) record(name string, v float64) {
	lb.samples[name] = append(lb.samples[name], v)
}

// schedule runs one warm Session.Schedule as engine.warm_schedule_ms.<kind>.
// With count set (the call is one the workload itself makes) it also
// counts the call's allocations and candidate-memo outcomes.
func (lb *layerBench) schedule(kind string, count bool, sess *memsched.Session, p memsched.Platform, opts ...memsched.ScheduleOption) error {
	var m0, m1 runtime.MemStats
	var res *memsched.Result
	runtime.ReadMemStats(&m0)
	err := lb.time("engine.warm_schedule_ms."+kind, func() error {
		var err error
		res, err = sess.Schedule(context.Background(), p, opts...)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil || !count || res == nil {
		return err
	}
	lb.record("engine.allocs_per_schedule", float64(m1.Mallocs-m0.Mallocs))
	lb.candHits += float64(res.Stats.CacheHits)
	lb.candMisses += float64(res.Stats.CacheMisses)
	return nil
}

// metrics reduces the samples: medians of timings and counts, and the
// accumulated ratios.
func (lb *layerBench) metrics() map[string]float64 {
	m := map[string]float64{}
	for name, v := range lb.samples {
		m[name] = median(v)
	}
	if n := lb.candHits + lb.candMisses; n > 0 {
		m["engine.candidate_hit_ratio"] = lb.candHits / n
	}
	if lb.placements > 0 {
		m["sweep.replayed_ratio"] = lb.replayed / lb.placements
	}
	return m
}

// allocKB measures the KB allocated by fn, recorded as
// runtime.alloc_kb_per_unit: fn replays the layer calls one unit makes.
func (lb *layerBench) allocKB(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	lb.record("runtime.alloc_kb_per_unit", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	return err
}

// buildChain times what a replica does with an inline graph before the
// cache lookup: decode the graph, build the session, hash it.
func (lb *layerBench) buildChain(raw []byte, opts ...memsched.SessionOption) (*memsched.Session, error) {
	var g *memsched.Graph
	var sess *memsched.Session
	err := lb.time("dag.graph_decode_ms", func() error {
		var err error
		g, err = memsched.ReadGraph(bytes.NewReader(raw))
		return err
	})
	if err == nil {
		err = lb.time("session.build_ms", func() error {
			var err error
			sess, err = memsched.NewSession(g, opts...)
			return err
		})
	}
	if err == nil {
		err = lb.time("dag.canonical_hash_ms", func() error {
			memsched.GraphHash(g)
			return nil
		})
	}
	return sess, err
}

// coldSchedule times the first Schedule on a fresh session and then
// PeakResidency on its fresh result.
func (lb *layerBench) coldSchedule(sess *memsched.Session, p memsched.Platform, opts ...memsched.ScheduleOption) error {
	var res *memsched.Result
	err := lb.time("engine.cold_schedule_ms", func() error {
		var err error
		res, err = sess.Schedule(context.Background(), p, opts...)
		return err
	})
	if err != nil || res == nil {
		return err
	}
	return lb.time("finalize.peak_residency_ms", func() error {
		res.PeakResidency()
		return nil
	})
}

// warmSession builds a session and runs it once on p, so its memos are warm.
func warmSession(g *memsched.Graph, p memsched.Platform, opts ...memsched.SessionOption) (*memsched.Session, error) {
	sess, err := memsched.NewSession(g, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Schedule(context.Background(), p); err != nil && !errors.Is(err, memsched.ErrMemoryBound) {
		return nil, err
	}
	return sess, nil
}

func routingKey(body []byte) error {
	_, _, err := serve.RoutingKey(body)
	return err
}

// ---------------------------------------------------------------------------

func (w *inlineRouted) layers(lb *layerBench) error {
	// warm holds one session per graph, as the owning replica does;
	// lifted the same graph as a k-pool session, so the two engines are
	// timed on the same instance.
	warm := make([]*memsched.Session, len(w.bodies))
	lifted := make([]*memsched.Session, len(w.bodies))
	for k, g := range w.graphs {
		var err error
		if warm[k], err = warmSession(g, w.platforms[k]); err != nil {
			return err
		}
		if lifted[k], err = warmSession(g, w.platforms[k], memsched.WithPoolTimes(liftedTimes(g))); err != nil {
			return err
		}
	}
	for r := 0; lb.next(r, "layers inline-routed"); r++ {
		k := r % len(w.bodies)
		var fresh *memsched.Session
		// One request: the router's RoutingKey, then the replica's decode,
		// graph build and hash, the warm engine run and PeakResidency.
		err := lb.allocKB(func() error {
			if err := lb.time("cluster.routing_key_ms", func() error { return routingKey(w.bodies[k]) }); err != nil {
				return err
			}
			var req serve.ScheduleRequest
			if err := lb.time("serve.request_decode_ms", func() error { return json.Unmarshal(w.bodies[k], &req) }); err != nil {
				return err
			}
			var err error
			if fresh, err = lb.buildChain(req.Graph); err != nil {
				return err
			}
			return lb.schedule("dual", true, warm[k], w.platforms[k])
		})
		if err == nil {
			err = lb.coldSchedule(fresh, w.platforms[k])
		}
		if err == nil {
			err = lb.schedule("kpool", false, lifted[k], w.platforms[k])
		}
		lb.done()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *idChurn) layers(lb *layerBench) error {
	ctx := context.Background()
	for r := 0; lb.next(r, "layers id-churn"); r++ {
		e := &w.entries[r%len(w.entries)]
		kind := "dual"
		var opts []memsched.SessionOption
		if e.times != nil {
			kind = "kpool"
			opts = append(opts, memsched.WithPoolTimes(e.times))
		}
		var sess *memsched.Session
		// One job: decode and build the registration, then the six
		// schedules, the first of them on cold memos.
		err := lb.allocKB(func() error {
			var req serve.RegisterRequest
			if err := lb.time("serve.request_decode_ms", func() error { return json.Unmarshal(e.register, &req) }); err != nil {
				return err
			}
			var err error
			if sess, err = lb.buildChain(req.Graph, opts...); err != nil {
				return err
			}
			if err := lb.coldSchedule(sess, e.plats[0], memsched.WithScheduler(e.algos[0]), memsched.WithSeed(e.seeds[0])); err != nil {
				return err
			}
			for j := 1; j < churnJob; j++ {
				var sr serve.ScheduleRequest
				if err := json.Unmarshal(e.sched[j], &sr); err != nil {
					return err
				}
				res, err := sess.Schedule(ctx, e.plats[j], memsched.WithScheduler(e.algos[j]), memsched.WithSeed(e.seeds[j]))
				if errors.Is(err, memsched.ErrMemoryBound) {
					continue
				}
				if err != nil {
					return err
				}
				res.PeakResidency()
			}
			return nil
		})
		if err == nil {
			err = lb.time("cluster.routing_key_ms", func() error { return routingKey(e.register) })
		}
		for j := 0; err == nil && j < churnJob; j++ {
			err = lb.schedule(kind, true, sess, e.plats[j], memsched.WithScheduler(e.algos[j]), memsched.WithSeed(e.seeds[j]))
		}
		lb.done()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepReplay) layers(lb *layerBench) error {
	ctx := context.Background()
	// warm holds one session per catalog graph that has run its sweep
	// once, as the replica's does; lifted the same graph as a k-pool
	// session. Both are built on a graph's first round, untimed.
	warm := make([]*memsched.Session, len(w.entries))
	lifted := make([]*memsched.Session, len(w.entries))
	for r := 0; lb.next(r, "layers sweep-replay"); r++ {
		k := r % len(w.entries)
		e := &w.entries[k]
		peak := e.want.Summary.Peak
		full := memsched.NewDualPlatform(2, 2, peak, peak)
		if warm[k] == nil {
			var err error
			if warm[k], err = memsched.NewSession(e.graph); err != nil {
				return err
			}
			if _, err := sweep.Run(ctx, warm[k], w.spec); err != nil {
				return err
			}
			if lifted[k], err = warmSession(e.graph, full, memsched.WithPoolTimes(liftedTimes(e.graph))); err != nil {
				return err
			}
		}
		var res *sweep.Result
		// One stream: decode the request and run the sweep on the warm
		// session; no graph is decoded.
		err := lb.allocKB(func() error {
			var req serve.SweepRequest
			if err := lb.time("serve.request_decode_ms", func() error { return json.Unmarshal(e.body, &req) }); err != nil {
				return err
			}
			return lb.time("sweep.run_ms", func() error {
				var err error
				res, err = sweep.Run(ctx, warm[k], w.spec)
				return err
			})
		})
		if err == nil {
			truncated := 0
			for _, p := range res.Points {
				lb.replayed += float64(p.ReplayedPlacements)
				lb.placements += float64(e.graph.NumTasks())
				if p.ReplayTruncated {
					truncated++
				}
				rec := serve.SweepPoint{
					Type: "point", Index: p.Index, Axis: p.Point.Axis, X: p.Point.X, Alpha: p.Point.Alpha,
					Scheduler: p.Point.Scheduler, Seed: p.Point.Seed, Feasible: p.Feasible, Reason: p.Reason,
					Makespan: p.Makespan, Peaks: p.Peaks, WallMicros: p.Stats.WallTime.Microseconds(),
					ReplayedPlacements: p.ReplayedPlacements, ReplayTruncated: p.ReplayTruncated,
				}
				t := time.Now()
				if _, err = json.Marshal(rec); err != nil {
					break
				}
				lb.record("serve.point_encode_us", float64(time.Since(t))/float64(time.Microsecond))
			}
			lb.record("sweep.truncated_points", float64(truncated))
		}
		if err == nil {
			err = lb.time("cluster.routing_key_ms", func() error { return routingKey(e.body) })
		}
		var sess *memsched.Session
		if err == nil {
			sess, err = lb.buildChain(e.raw)
		}
		if err == nil {
			err = lb.coldSchedule(sess, full, memsched.WithSeed(7))
		}
		if err == nil {
			err = lb.schedule("dual", true, sess, full, memsched.WithSeed(7))
		}
		if err == nil {
			err = lb.schedule("kpool", false, lifted[k], full, memsched.WithSeed(7))
		}
		lb.done()
		if err != nil {
			return err
		}
	}
	return nil
}
