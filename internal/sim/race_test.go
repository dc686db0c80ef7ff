//go:build race

package sim

// raceEnabled: the race detector drops a random share of sync.Pool puts,
// so allocation-recycling bounds do not hold under -race.
const raceEnabled = true
