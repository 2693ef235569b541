//go:build amd64 && !purego

package cpu

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv0() (eax, edx uint32)

// probe is the probe behind AVX2 and AVX512. AVX2 needs CPU support plus
// OS-enabled YMM state (OSXSAVE set, XCR0 XMM|YMM bits); AVX-512 also
// needs CPUID.7.0:EBX bits F (16), DQ (17), BW (30) and VL (31), and
// XCR0's opmask, ZMM_Hi256 and Hi16_ZMM bits (0xE0).
func probe() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf < 7 || ecx1&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xlo, _ := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	const avx512Bits = avx2Bit | 1<<16 | 1<<17 | 1<<30 | 1<<31
	return xlo&6 == 6 && ebx7&avx2Bit != 0, // XMM and YMM state OS-managed
		xlo&0xE6 == 0xE6 && ebx7&avx512Bits == avx512Bits
}
