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
