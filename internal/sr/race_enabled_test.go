//go:build race

package sr

// raceDetectorEnabled mirrors the -race build tag: allocation ceilings do
// not hold under the detector (sync.Pool drops a quarter of its Puts).
const raceDetectorEnabled = true
