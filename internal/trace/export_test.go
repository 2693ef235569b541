package trace

import "time"

// FCCSet builds the paper's 25-trace evaluation set: 25 uplink traces whose
// mean bandwidths follow the Fig-8 distribution.
func FCCSet(n int, dur time.Duration, seed int64) []*Trace {
	means := SampleFCCMeans(n, seed)
	out := make([]*Trace, n)
	for i := range out {
		out[i] = FCCUplink(seed*1000+int64(i), dur, means[i])
	}
	return out
}
