//go:build race

package main

// raceEnabled reports that this binary was built with the race detector,
// under which a full-preset run of every experiment takes minutes.
const raceEnabled = true
