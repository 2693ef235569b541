//go:build !race

package sr

const raceDetectorEnabled = false
