//go:build race

package mat

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts say nothing about reuse.
const raceEnabled = true
