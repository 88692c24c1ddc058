//go:build race

package appender

const raceEnabled = true
