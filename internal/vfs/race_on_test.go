//go:build race

package vfs

// raceEnabled reports that this binary was built with the race detector;
// allocation-count assertions are skipped there because instrumentation
// changes the allocation profile.
const raceEnabled = true
