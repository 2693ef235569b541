package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on is a shared two-vCPU virtual machine whose
// speed drifts: for a minute or two at a time the second vCPU delivers half
// of its capacity, or everything, CPU time included, runs 20-40 % slower,
// and then it recovers. Ten identical runs of one workload give raw rates
// 35-50 % apart, and no statistic taken inside one 20-second run can remove
// a disturbance that outlasts the run. So the timed metrics are normalised:
// a fixed calibration kernel runs before and after every iteration, and the
// iteration's rates, CPU time and wall time are referred to the machine
// speed the kernel saw around it. The reported figures are those of a
// machine on which the kernel takes exactly calibRef; every result file
// keeps the raw figures and the factors beside them.
//
// The kernel, calibRef and calibExponent are part of the benchmark's
// definition: changing any of them changes every number.

const (
	// calibRef is the kernel's typical wall time on this box.
	calibRef = 100 * time.Millisecond

	// calibExponent is how strongly the workloads follow the kernel: over 28
	// minutes of this box's drift (all four workloads interleaved with
	// candidate kernels) every leg slowed by about three quarters of what the
	// kernel did, in log terms. Dividing by factor = (t/calibRef)^0.75 cut
	// the quartile spread of every leg from 9-20 % to 5-9 %.
	calibExponent = 0.75

	calibSmallLen = 2 << 10 // floats: 8 KB, stays in L1
	calibBigLen   = 2 << 20 // floats: 8 MB, past the L2
)

type calibLane struct {
	small, big []float32
	sum        float32
}

var (
	calibOnce  sync.Once
	calibLanes []calibLane
)

// fma is the compute half of the kernel: multiply-adds over an L1-resident
// array.
func (l *calibLane) fma(reps int) {
	s := l.sum
	for r := 0; r < reps; r++ {
		for i, v := range l.small {
			s += v * 0.5
			l.small[i] = v*0.999 + 0.0005
		}
	}
	l.sum = s
}

// gather is the memory half: a dependent chain of random reads.
func (l *calibLane) gather(n int) {
	s := l.sum
	idx := uint32(len(l.big))
	for i := 0; i < n; i++ {
		idx = idx*1664525 + 1013904223 + uint32(s)&1
		s += l.big[idx>>11&(calibBigLen-1)]
	}
	l.sum = s
}

// calibrate runs the kernel once (chunks work-sharing units; sizes.CalibChunks
// in a real run, which is what calibRef refers to) and returns its wall
// time. One goroutine
// per core pulls chunks off a shared counter until all are done (so a
// stalled vCPU costs capacity, not a straggler wait, as in the kernel pool
// the layers under test use); chunks alternate between pure compute and
// gather-then-compute.
func calibrate(chunks int) time.Duration {
	calibOnce.Do(func() {
		calibLanes = make([]calibLane, runtime.GOMAXPROCS(0))
		for l := range calibLanes {
			small, big := make([]float32, calibSmallLen), make([]float32, calibBigLen)
			for i := range small {
				small[i] = float32(i%251) / 251
			}
			for i := range big {
				big[i] = float32(i%241) / 241
			}
			calibLanes[l] = calibLane{small: small, big: big}
		}
	})
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := range calibLanes {
		wg.Add(1)
		go func(lane *calibLane) {
			defer wg.Done()
			for c := next.Add(1); c <= int64(chunks); c = next.Add(1) {
				if c%2 == 0 {
					lane.fma(600)
				} else {
					lane.gather(1 << 15)
					lane.fma(300)
				}
			}
		}(&calibLanes[l])
	}
	wg.Wait()
	return time.Since(t0)
}

// calibrateMedian runs the kernel n times (at most four) and returns the
// median time.
func calibrateMedian(chunks, n int) time.Duration {
	xs := make([]float64, min(n, 4))
	for i := range xs {
		xs[i] = float64(calibrate(chunks))
	}
	return time.Duration(median(xs))
}

// speedFactor turns the calibration times around a measurement into the
// factor its durations are divided by (and its rates multiplied by) to
// refer them to the reference machine: above 1 when the machine ran slow.
func speedFactor(before, after time.Duration) float64 {
	t := (before + after) / 2
	return math.Pow(float64(t)/float64(calibRef), calibExponent)
}
