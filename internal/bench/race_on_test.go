//go:build race

package bench

// raceEnabled: the race detector slows the smoke run several times over,
// so its time limit is only held without it.
const raceEnabled = true
