//go:build !race

package experiments

// raceEnabled reports a race-detector build (see TestFigureGoldens).
const raceEnabled = false
