package vidgen

import (
	"math"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n bytes that end where an inaccessible page begins, so a
// kernel that touches one byte past them faults. The mapping is released
// when the test ends.
func guarded(t *testing.T, n int) []byte {
	page := os.Getpagesize()
	size := (n+page-1)/page*page + page
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	if err := syscall.Mprotect(m[size-page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return m[size-page-n : size-page]
}

func guardedFloats(t *testing.T, n int) []float64 {
	b := guarded(t, 8*n)
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// TestKernelsStayInsideRows runs pixRow and octave.fill, under each kernel
// set, on rows of every remainder mod 8 whose operands and destination
// each end at an inaccessible page: a vector load or store that reaches
// past a row's end, masked or not, faults and fails the test binary. The
// results are checked against the Go twins.
func TestKernelsStayInsideRows(t *testing.T) {
	forEachPixKernels(t, func(t *testing.T) {
		for w := 1; w <= 17; w++ {
			row, on := guarded(t, w), guarded(t, w)
			ops := make([][]float64, 6)
			for i := range ops {
				ops[i] = guardedFloats(t, w)
				for x := range ops[i] {
					ops[i][x] = math.Mod(float64(i*w+x)*0.37, 1)
				}
			}
			for x := range on {
				on[x] = uint8(x % 8)
			}
			var k pixLanes
			bcast(&k.base, 120)
			bcast(&k.amp1, 60)
			bcast(&k.warp, 1.2)
			bcast(&k.amp2, 30)
			bcast(&k.step, 23)
			bcast(&k.grain, 4)
			bcast(&k.omy1, 0.25)
			bcast(&k.wy1, 0.75)
			bcast(&k.omy2, 0.5)
			bcast(&k.wy2, 0.5)
			bcast(&k.omyG, 0.9)
			bcast(&k.wyG, 0.1)
			k.rowOn = [4]uint64{3, 3, 3, 3}
			pixRow(row, on, ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], &k)
			want := make([]uint8, w)
			pixRowGo(want, on, ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], &k, 0)
			if string(row) != string(want) {
				t.Fatalf("width %d: pixel row %v, Go twin %v", w, row, want)
			}

			var o octave
			o.init(w, -2.5, 1/3.5, 9)
			// the column tables and the destination end at guard pages too
			ix := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(guarded(t, 8*w)))), w)
			copy(ix, o.ix)
			o.ix = ix
			o.wx, o.omx = append(guardedFloats(t, w)[:0], o.wx...), append(guardedFloats(t, w)[:0], o.omx...)
			dst := guardedFloats(t, w)
			o.fill(dst, 4)
			for x, v := range fillRef(&o, 4) {
				if math.Float64bits(dst[x]) != math.Float64bits(v) {
					t.Fatalf("width %d: lattice row column %d = %v, oracle %v", w, x, dst[x], v)
				}
			}
		}
	})
}
