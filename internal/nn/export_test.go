package nn

// SetRequantVec installs (on) or removes the vectorized requantReLU body for
// the package's external tests, which drive the int8 path through
// internal/sr, and returns a func restoring the previous setting.
func SetRequantVec(on bool) (restore func()) {
	saved := qrequantVec
	qrequantVec = nil
	if on {
		qrequantVec = qrequant
	}
	return func() { qrequantVec = saved }
}

// edgeTiles is one set of the f32 GEMM's 4-column edge tiles, with
// kern8x4's, kern4x4's and kern1x4's contracts.
type edgeTiles struct {
	name       string
	t8x4, t4x4 func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
	t1x4       func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool)
}

// edgeTileSets holds the edge-tile sets this build can execute: the Go
// twins (kernGo) always, as "go"; gemm_amd64_test.go adds the SSE2 tiles as
// "asm" on amd64 without purego, so the twins are tested there as well.
var edgeTileSets = []edgeTiles{{
	name: "go",
	t8x4: func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
		kernGo(kk, a, b, off, bias, c, cn, 8, 4, relu)
	},
	t4x4: func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
		kernGo(kk, a, b, off, bias, c, cn, 4, 4, relu)
	},
	t1x4: func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool) {
		kernGo(kk, a, b, off, bias, c, 0, 1, 4, relu)
	},
}}

// Zero resets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace adds o element-wise into t. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic("nn: AddInPlace shape mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}
