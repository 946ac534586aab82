package schedule

// MemoryPeaksReference exposes the retained oracle to the external tests,
// which build their schedules with the real heuristics of internal/multi.
func MemoryPeaksReference(s *Schedule) (blue, red int64) { return s.memoryPeaksReference() }
