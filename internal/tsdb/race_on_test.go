//go:build race

package tsdb

// raceEnabled: under the race detector append(s, make([]T, n)...) really
// makes its argument, so allocation counts are only held without it.
const raceEnabled = true
