package vidgen

import (
	"slices"
	"testing"

	"livenas/internal/cpu"
)

// kernelSets are FrameAt's kernel sets, by the flags that install them:
// the Go twins, the AVX2 pixel row with the Go lattice rows, and the
// AVX-512 pixel row and lattice rows.
var kernelSets = []struct {
	name         string
	ok           bool // this build and host can run it
	avx2, avx512 bool
}{
	{"go", true, false, false},
	{"avx2", cpu.AVX2, true, false},
	{"avx512", cpu.AVX512, true, true},
}

// forEachPixKernels runs fn as one subtest per kernel set of FrameAt, with
// that set installed ("go", "avx2" and "avx512"); a set the build or host
// cannot run is a skipped subtest. The installed set is restored
// afterwards, so the Go twins are tested on vector hosts as well.
func forEachPixKernels(t *testing.T, fn func(t *testing.T)) {
	forEachKernelSet(t, fn, "go", "avx2", "avx512")
}

// forEachFillKernels is forEachPixKernels for the lattice rows, which have
// two kernels: "go" and "avx512".
func forEachFillKernels(t *testing.T, fn func(t *testing.T)) {
	forEachKernelSet(t, fn, "go", "avx512")
}

func forEachKernelSet(t *testing.T, fn func(t *testing.T), names ...string) {
	saved2, saved512 := pixAVX2, pixAVX512
	defer func() { pixAVX2, pixAVX512 = saved2, saved512 }()
	for _, k := range kernelSets {
		if !slices.Contains(names, k.name) {
			continue
		}
		pixAVX2, pixAVX512 = k.avx2, k.avx512
		t.Run(k.name, func(t *testing.T) {
			if !k.ok {
				t.Skipf("no %s on this build or host", k.name)
			}
			fn(t)
		})
	}
}

// SceneIndexAt reports which scene (0-based) is on screen at time t seconds.
func (s *Source) SceneIndexAt(t float64) int {
	_, i := s.sceneAt(t)
	return i
}
