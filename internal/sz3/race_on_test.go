//go:build race

package sz3

// raceEnabled: under the race detector sync.Pool drops a share of its Puts
// on purpose, so zpool's coders are reallocated at random and allocation
// counts mean nothing.
const raceEnabled = true
