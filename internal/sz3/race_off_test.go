//go:build !race

package sz3

const raceEnabled = false
