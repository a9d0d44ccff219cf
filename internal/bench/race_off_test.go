//go:build !race

package bench

// raceEnabled reports whether the race detector is active (the figures
// test skips under it).
const raceEnabled = false
