package vidgen

import (
	"testing"

	"livenas/internal/cpu"
)

// forEachPixKernels runs fn as one subtest per pixel-row kernel set this
// host can execute, with that set installed: the Go twin always ("go"), the
// AVX2 kernel when cpu.AVX2 ("asm"). The installed set is restored
// afterwards, so the Go twin is tested on AVX2 hosts as well.
func forEachPixKernels(t *testing.T, fn func(t *testing.T)) {
	type pixKernels struct {
		name string
		avx2 bool
	}
	sets := []pixKernels{{"go", false}}
	if cpu.AVX2 {
		sets = append(sets, pixKernels{"asm", true})
	} else {
		t.Log("no AVX2 on this build or host; testing the Go pixel row only")
	}
	saved := pixAVX2
	defer func() { pixAVX2 = saved }()
	for _, k := range sets {
		pixAVX2 = k.avx2
		t.Run(k.name, fn)
	}
}

// SceneIndexAt reports which scene (0-based) is on screen at time t seconds.
func (s *Source) SceneIndexAt(t float64) int {
	_, i := s.sceneAt(t)
	return i
}
