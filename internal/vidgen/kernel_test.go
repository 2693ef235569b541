package vidgen

import "testing"

// TestPixRowShortSlicePanics checks that pixRow, under each kernel set,
// panics on an operand whose capacity is shorter than the row before any
// kernel reads it: the kernels read len(row) elements of each without a
// bounds check.
func TestPixRowShortSlicePanics(t *testing.T) {
	forEachPixKernels(t, func(t *testing.T) {
		for _, w := range []int{1, 4, 8, 13} {
			row, on := make([]uint8, w), make([]uint8, w)
			f := make([]float64, w)
			var k pixLanes
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("width %d: pixRow with a bG of %d returned", w, w-1)
					}
				}()
				pixRow(row, on, f, f, f, f, f, f[:w-1:w-1], &k)
			}()
		}
	})
}

// TestLatticeFillShortSlicePanics is the same check for octave.fill: a
// destination longer than the octave's column tables (init makes them
// exactly as long as it is told) panics.
func TestLatticeFillShortSlicePanics(t *testing.T) {
	forEachFillKernels(t, func(t *testing.T) {
		for _, w := range []int{1, 8, 13} {
			var o octave
			o.init(w, 0, 1/24.0, 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("fill of %d columns into a row of %d returned", w, w+1)
					}
				}()
				o.fill(make([]float64, w+1), 0)
			}()
		}
	})
}
