//go:build race

package zfpsim

const raceEnabled = true
