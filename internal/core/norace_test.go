//go:build !race

package core

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates on the Go heap.
const raceEnabled = false
