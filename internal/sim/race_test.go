//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through pooled evaluators vary.
const raceEnabled = true
