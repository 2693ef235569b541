// Package a exercises the unknown-allow check.
package a

import "io"

//livenas:allow lock-order a check that no longer exists // want unknown-allow
var mu int

// Flush's doc comment names two deleted checks next to a registered one.
//
//livenas:allow determinism-taint,goroutine-leak,unchecked-write deleted checks // want unknown-allow
func Flush(w io.Writer) {
	w.Write(nil) //livenas:allow unchecked-write registered, so not flagged
}

// A comment that only mentions livenas:allow race-guard is no directive.
var _ = mu //livenas:allow racegaurd misspelt // want unknown-allow

//livenas:allow race-guard tolerated only in the benchmark package // want unknown-allow
var _ = mu
