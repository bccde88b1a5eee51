//go:build race

package rounding

func init() { raceEnabled = true }
