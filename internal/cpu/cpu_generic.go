//go:build !amd64 || purego

package cpu

// probe reports neither off amd64 and under purego: those builds run the
// Go twins of every vector kernel.
func probe() (avx2, avx512 bool) { return false, false }
