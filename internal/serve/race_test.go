//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates on the
// program's behalf.
const raceEnabled = true
