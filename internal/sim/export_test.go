package sim

// Pending reports the number of scheduled events.
func (s *Simulator) Pending() int { return len(s.pq) }

// Stop makes Run/RunUntil return after the currently executing event.
func (s *Simulator) Stop() { s.halt = true }
