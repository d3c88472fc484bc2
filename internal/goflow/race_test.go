//go:build race

package goflow

// The race detector drops sync.Pool items at random, so the buffers
// pages are written into are not reused run to run: allocation counts
// are not measured under it.
func init() { raceDetector = true }
