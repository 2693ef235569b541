//go:build amd64 && !purego

package nn

// cpuid executes CPUID with the given leaf/subleaf.
//
//livenas:allow asm-abi privileged-instruction wrapper for amd64 feature detection; no pure-Go equivalent exists and no other build can reach it
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
//
//livenas:allow asm-abi privileged-instruction wrapper for amd64 feature detection; no pure-Go equivalent exists and no other build can reach it
func xgetbv0() (eax, edx uint32)

// cpuHasAVX2 reports AVX2 usable: CPU support plus OS-enabled YMM state
// (OSXSAVE set, XCR0 XMM|YMM bits). Both engines pick their micro-kernels
// from it once, at init, and the choice cannot change a result:
//
//   - int8: every kernel is exact integer accumulation plus a clamped-float
//     epilogue, so all variants agree by construction.
//   - f32: every kernel adds each output element's products in ascending
//     kidx with separate lane-wise mul and add (no FMA), so AVX2 and SSE2
//     perform the same float32 operations per element as the scalar path.
var cpuHasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&6 != 6 { // XMM and YMM state must both be OS-managed
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()
