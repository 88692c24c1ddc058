//go:build !race

package shiftsplit

const raceEnabled = false
