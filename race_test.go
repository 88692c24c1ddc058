//go:build race

package shiftsplit

const raceEnabled = true
