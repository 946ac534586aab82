package multi

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/schedule"
)

// Eps is the float tolerance for event-time comparisons, the dual model's.
const Eps = schedule.Eps

// Placement records where and when one task runs: its start time and its
// global processor index. It is the dual model's placement type, so a
// 2-pool schedule projects onto a dual one without copying its placements.
type Placement = schedule.TaskPlacement

// Schedule is a complete mapping of an instance onto a multi-pool platform.
type Schedule struct {
	Inst     *Instance
	Platform Platform

	Tasks     []Placement
	CommStart []float64 // per edge; NaN when intra-pool
}

// NewSchedule returns an empty schedule skeleton.
func NewSchedule(in *Instance, p Platform) *Schedule {
	s := &Schedule{
		Inst:      in,
		Platform:  p,
		Tasks:     make([]Placement, in.G.NumTasks()),
		CommStart: make([]float64, in.G.NumEdges()),
	}
	for i := range s.Tasks {
		s.Tasks[i] = Placement{Start: -1, Proc: -1}
	}
	for e := range s.CommStart {
		s.CommStart[e] = math.NaN()
	}
	return s
}

// Clone returns an independent copy of the schedule sharing the immutable
// instance. The warm-start margin shortcut hands clones of a recorded
// schedule to callers so the stored original can never be mutated through a
// Result.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Inst:      s.Inst,
		Platform:  s.Platform,
		Tasks:     append([]Placement(nil), s.Tasks...),
		CommStart: append([]float64(nil), s.CommStart...),
	}
}

// PoolOf returns the pool executing task id.
func (s *Schedule) PoolOf(id dag.TaskID) int { return s.Platform.PoolOf(s.Tasks[id].Proc) }

// Duration returns the actual processing time of task id.
func (s *Schedule) Duration(id dag.TaskID) float64 { return s.Inst.Time(id, s.PoolOf(id)) }

// Finish returns start + duration of task id.
func (s *Schedule) Finish(id dag.TaskID) float64 { return s.Tasks[id].Start + s.Duration(id) }

// Makespan returns the completion time of the last task.
func (s *Schedule) Makespan() float64 {
	ms := 0.0
	for i := range s.Tasks {
		if f := s.Finish(dag.TaskID(i)); f > ms {
			ms = f
		}
	}
	return ms
}

// IsCross reports whether edge e connects tasks on different pools.
func (s *Schedule) IsCross(e dag.EdgeID) bool {
	edge := s.Inst.G.Edge(e)
	return s.PoolOf(edge.From) != s.PoolOf(edge.To)
}

type residency struct {
	pool     int
	from, to float64
	size     int64
}

func (s *Schedule) residencies() []residency {
	g := s.Inst.G
	var rs []residency
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		if edge.File == 0 {
			continue
		}
		src := s.PoolOf(edge.From)
		prodStart := s.Tasks[edge.From].Start
		consFinish := s.Finish(edge.To)
		if !s.IsCross(dag.EdgeID(e)) {
			rs = append(rs, residency{pool: src, from: prodStart, to: consFinish, size: edge.File})
			continue
		}
		tau := s.CommStart[e]
		rs = append(rs, residency{pool: src, from: prodStart, to: tau + edge.Comm, size: edge.File})
		rs = append(rs, residency{pool: s.PoolOf(edge.To), from: tau, to: consFinish, size: edge.File})
	}
	return rs
}

// MemoryPeaks returns the peak usage of every pool. It sweeps the
// residency intervals of residencies as open/close events per pool, built
// straight into one presized buffer in the same order residencies would
// list them.
func (s *Schedule) MemoryPeaks() []int64 {
	g := s.Inst.G
	k := s.Platform.NumPools()
	pool := make([]int, g.NumTasks())
	finish := make([]float64, g.NumTasks())
	for i := range s.Tasks {
		pool[i] = s.PoolOf(dag.TaskID(i))
		finish[i] = s.Tasks[i].Start + s.Inst.Time(dag.TaskID(i), pool[i])
	}
	edges := g.Edges()
	offs := make([]int, k+1)
	for _, edge := range edges {
		if edge.File == 0 {
			continue
		}
		offs[pool[edge.From]+1] += 2
		if pool[edge.From] != pool[edge.To] {
			offs[pool[edge.To]+1] += 2
		}
	}
	for p := 1; p <= k; p++ {
		offs[p] += offs[p-1]
	}
	buf := make([]schedule.PeakEvent, offs[k])
	evs := make([][]schedule.PeakEvent, k)
	for p := range evs {
		evs[p] = buf[offs[p]:offs[p]:offs[p+1]]
	}
	for e, edge := range edges {
		if edge.File == 0 {
			continue
		}
		src, dst := pool[edge.From], pool[edge.To]
		prodStart := s.Tasks[edge.From].Start
		if src == dst {
			evs[src] = append(evs[src], schedule.PeakEvent{T: prodStart, Delta: edge.File}, schedule.PeakEvent{T: finish[edge.To], Delta: -edge.File})
			continue
		}
		tau := s.CommStart[e]
		evs[src] = append(evs[src], schedule.PeakEvent{T: prodStart, Delta: edge.File}, schedule.PeakEvent{T: tau + edge.Comm, Delta: -edge.File})
		evs[dst] = append(evs[dst], schedule.PeakEvent{T: tau, Delta: edge.File}, schedule.PeakEvent{T: finish[edge.To], Delta: -edge.File})
	}
	peaks := make([]int64, k)
	for p, pe := range evs {
		peaks[p] = schedule.SweepPeak(pe)
	}
	return peaks
}

// Validate checks completeness, flow, resource and per-pool memory
// constraints, mirroring the dual-memory validator.
func (s *Schedule) Validate() error {
	g, p := s.Inst.G, s.Platform
	if err := p.Validate(); err != nil {
		return err
	}
	if err := s.Inst.Validate(p); err != nil {
		return err
	}
	for i := range s.Tasks {
		pl := s.Tasks[i]
		if pl.Proc < 0 || pl.Proc >= p.TotalProcs() {
			return fmt.Errorf("multi: task %d on invalid processor %d", i, pl.Proc)
		}
		if pl.Start < -Eps {
			return fmt.Errorf("multi: task %d starts at %g", i, pl.Start)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		srcFinish := s.Finish(edge.From)
		dstStart := s.Tasks[edge.To].Start
		if !s.IsCross(dag.EdgeID(e)) {
			if srcFinish > dstStart+Eps {
				return fmt.Errorf("multi: edge %d->%d violates precedence", edge.From, edge.To)
			}
			continue
		}
		tau := s.CommStart[e]
		if math.IsNaN(tau) {
			return fmt.Errorf("multi: cross edge %d->%d has no communication start", edge.From, edge.To)
		}
		if srcFinish > tau+Eps || tau+edge.Comm > dstStart+Eps {
			return fmt.Errorf("multi: communication %d->%d out of window", edge.From, edge.To)
		}
	}
	byProc := map[int][]dag.TaskID{}
	for i := range s.Tasks {
		byProc[s.Tasks[i].Proc] = append(byProc[s.Tasks[i].Proc], dag.TaskID(i))
	}
	for proc, ids := range byProc {
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := s.Tasks[ids[a]].Start, s.Tasks[ids[b]].Start
			if sa != sb {
				return sa < sb
			}
			return s.Finish(ids[a]) < s.Finish(ids[b])
		})
		for k := 1; k < len(ids); k++ {
			if s.Finish(ids[k-1]) > s.Tasks[ids[k]].Start+Eps {
				return fmt.Errorf("multi: tasks %d and %d overlap on processor %d", ids[k-1], ids[k], proc)
			}
		}
	}
	rs := s.residencies()
	for _, r := range rs {
		var usage int64
		for _, o := range rs {
			if o.pool == r.pool && o.from <= r.from+Eps && r.from < o.to-Eps {
				usage += o.size
			}
		}
		if usage > p.Pools[r.pool].Capacity {
			return fmt.Errorf("multi: pool %d over capacity at t=%g: %d > %d", r.pool, r.from, usage, p.Pools[r.pool].Capacity)
		}
	}
	return nil
}
