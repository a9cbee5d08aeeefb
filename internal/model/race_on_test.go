//go:build race

package model

// raceEnabled mirrors the race detector's build tag so the pivot pin
// can skip its slow corpus under instrumentation.
const raceEnabled = true
