// Package a exercises the unknown-allow check.
package a

import "time"

//livenas:allow lock-order a check that no longer exists // want unknown-allow
var mu int

// Stamp's doc comment names a deleted check next to a registered one.
//
//livenas:allow determinism-taint,asm-abi wall clock on purpose // want unknown-allow
func Stamp() time.Time {
	return time.Now() //livenas:allow determinism-taint registered, so not flagged
}

// A comment that only mentions livenas:allow race-guard is no directive.
var _ = mu //livenas:allow racegaurd misspelt // want unknown-allow

//livenas:allow race-guard tolerated only in the benchmark package // want unknown-allow
var _ = mu
