//go:build !race

package tsdb

const raceEnabled = false
