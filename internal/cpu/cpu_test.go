//go:build linux && amd64 && !purego

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo checks the probe against the kernel's own view
// of the CPU, the flags line of /proc/cpuinfo: AVX2 is set exactly where
// "avx2" is listed, AVX512 exactly where "avx512f", "avx512dq", "avx512bw"
// and "avx512vl" all are as well. (The kernel lists a feature only when
// it manages the register state the feature needs.)
func TestProbeMatchesCPUInfo(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	wantAVX2 := flags["avx2"]
	wantAVX512 := wantAVX2 && flags["avx512f"] && flags["avx512dq"] && flags["avx512bw"] && flags["avx512vl"]
	if AVX2 != wantAVX2 {
		t.Errorf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, wantAVX2)
	}
	if AVX512 != wantAVX512 {
		t.Errorf("AVX512 = %v, /proc/cpuinfo lists avx2, avx512f, dq, bw and vl: %v", AVX512, wantAVX512)
	}
}
