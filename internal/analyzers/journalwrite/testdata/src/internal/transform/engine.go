// Package transform stands in for the maintenance engines: its import path
// ends in internal/transform, yet the engines apply tile mutations on Run's
// consumer, never on a goroutine they launch, so it is held to the same rule
// as every other package.
package transform

import "github.com/shiftsplit/shiftsplit/internal/tile"

// Fan applies a tile write on its own goroutine, which is flagged even here.
func Fan(st *tile.Store, buf []float64) error {
	done := make(chan error, 1)
	go func() {
		done <- st.WriteTile(0, buf) // want `tile.WriteTile from an ad hoc goroutine`
	}()
	return <-done
}
