//go:build race

package serve

// raceEnabled reports that the race detector is on; it inflates allocation
// counts, so tests that bound them skip.
const raceEnabled = true
