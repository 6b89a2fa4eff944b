//go:build race

package core

// The race runtime drops a share of sync.Pool puts and adds its own
// allocations, so allocation budgets only hold without it.
func init() { raceEnabled = true }
