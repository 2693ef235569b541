//go:build !amd64 || purego

package metrics

// These builds have no SSE2 kernel: useSSE2 stays false.
func ssdSSE2(a, b []uint8) uint64 { return ssdGo(a, b) }
