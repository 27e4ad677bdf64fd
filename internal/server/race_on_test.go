//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so pool-backed allocation budgets do not hold.
const raceEnabled = true
