//go:build !amd64 || purego

package cpu

// hasAVX2 is false off amd64 and under purego: those builds run the Go
// twins of every vector kernel.
func hasAVX2() bool { return false }
