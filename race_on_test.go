//go:build race

package cfgtag

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts are not meaningful.
const raceEnabled = true
