//go:build !race

package sperr

const raceEnabled = false
