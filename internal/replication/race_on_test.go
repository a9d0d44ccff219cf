//go:build race

package replication

// raceEnabled reports whether the race detector is active (allocation
// budget tests skip under it).
const raceEnabled = true
