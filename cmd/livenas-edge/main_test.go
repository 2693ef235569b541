package main

import (
	"math"
	"testing"
)

// TestQueueFlagRefused: -queue 0 reached NewQueuedConn, which reads a
// bound <= 0 as unbounded, so one viewer that stopped reading grew the
// relay's memory without limit. A non-positive bound is refused before
// anything is dialled.
func TestQueueFlagRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes int
		ok    bool
	}{
		{"zero", 0, false},
		{"negative", -1, false},
		{"most negative", math.MinInt, false},
		{"one byte", 1, true},
		{"default", 1 << 20, true},
	} {
		if err := checkQueue(tc.bytes); (err == nil) != tc.ok {
			t.Errorf("%s: checkQueue(%d) = %v, want ok %v", tc.name, tc.bytes, err, tc.ok)
		}
	}
}
