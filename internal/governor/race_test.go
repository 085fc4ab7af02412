//go:build race

package governor

// raceEnabled reports a -race build, where the long sequential replay
// cases run slowly and check nothing the race detector adds to.
const raceEnabled = true
