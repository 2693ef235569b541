package telemetry

// SetEventCap bounds the in-memory event log (default DefaultEventCap).
// It does not truncate events already retained.
func (r *Registry) SetEventCap(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.evCap = n
}
