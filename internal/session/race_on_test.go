//go:build race

package session

// raceEnabled reports that the race detector is active. Its
// instrumentation changes allocation counts, so the allocation pins are
// skipped under -race.
const raceEnabled = true
