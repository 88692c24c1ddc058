//go:build !race

package appender

const raceEnabled = false
