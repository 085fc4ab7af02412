//go:build !race

package governor

const raceEnabled = false
