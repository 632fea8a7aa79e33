//go:build race

package service

// Under the race detector sync.Pool drops a random share of the items
// put into it, so allocation counts that rely on a warm pool vary.
func init() { raceEnabled = true }
