// Package benchmark exercises unknown-allow's one exemption: the module's
// benchmark package may keep race-guard directives, and nothing else.
package benchmark

var n int

//livenas:allow race-guard retired, tolerated in the benchmark package only
var _ = n

//livenas:allow lock-order retired, but not tolerated here // want unknown-allow
var _ = n
