package gcc

// State returns the delay controller's current state.
func (c *Controller) State() State { return c.state }

// owdSlopeMsPerSec fits delay(sendTime) by least squares and returns the
// slope in milliseconds of delay growth per second.
func owdSlopeMsPerSec(acks []Ack) float64 {
	n := float64(len(acks))
	var sx, sy, sxx, sxy float64
	t0 := acks[0].SentAt
	for _, a := range acks {
		x := (a.SentAt - t0).Seconds()
		y := (a.RecvAt - a.SentAt).Seconds() * 1000
		sx += x
		sy += float64(y)
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den < 1e-12 {
		return 0
	}
	return (float64(n*sxy) - float64(sx*sy)) / den
}
