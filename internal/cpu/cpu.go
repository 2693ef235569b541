// Package cpu holds the one CPU-feature probe of the module. The vector
// kernels of internal/nn and internal/frame, the residual row of
// internal/sr, the 8x8 transforms and block kernels of internal/codec and
// the pixel row of internal/vidgen are chosen once, at init, from AVX2; no
// flag, env var or build tag overrides it. (codec's SAD kernels and
// metrics' sum of squared differences are SSE2, baseline amd64, and need
// no probe.)
package cpu

// AVX2 reports AVX2 usable: CPU support plus OS-enabled YMM state. It is
// false on every other architecture and under the purego build tag, where
// the callers run their pure-Go twins.
//
// A kernel choice made from it cannot change a result: every AVX2 kernel
// performs its twin's IEEE operations per element, in the same order, with
// no FMA (int8 accumulation is exact integer arithmetic and agrees by
// construction; vidgen's math.Round is an exact truncate-and-select, see
// DESIGN.md "Session hot path").
var AVX2 = hasAVX2()
