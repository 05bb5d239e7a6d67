package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentile applies the benchmark's tail rule: p90, or when the
// run has too few samples to keep at least ten above p90, the highest
// whole percentile that does. It uses the nearest-rank definition, so
// the returned value is always one of the samples. ok is false when
// not even the median keeps ten samples above it.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, math.NaN(), false
	}
	p = min(90, 100*(n-10)/n)
	if p < 50 {
		return 0, math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	return p, s[rank-1], true
}

// outcome classifies one attempted operation.
type outcome int

const (
	opOK outcome = iota
	// opErrored: the call returned an error.
	opErrored
	// opRefused: the system declined the work (an HTTP status other
	// than 200, or a run reported other than complete).
	opRefused
	// opWrong: the call succeeded but its output fails the check — a
	// fingerprint that differs from the pinned or first-seen one, or a
	// repeat that was not served from the store.
	opWrong
)

// tally counts attempted operations by outcome; every outcome except
// opOK counts as failed.
type tally struct {
	attempted, errored, refused, wrong int
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case opErrored:
		t.errored++
	case opRefused:
		t.refused++
	case opWrong:
		t.wrong++
	}
}

func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.errored += u.errored
	t.refused += u.refused
	t.wrong += u.wrong
}

func (t tally) failed() int { return t.errored + t.refused + t.wrong }

// failedFrac is the share of attempted operations that failed in any
// way; 0 when nothing was attempted.
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// heapObjectsMetric is the live-plus-unswept heap object bytes —
// runtime.MemStats.HeapAlloc — read without stopping the world.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// peakHeap runs fn while sampling the heap every 5 ms through
// runtime/metrics and returns the highest value seen, in bytes. The
// sampler reads the same quantity fleet.HeapWatermark reads, but
// runtime/metrics.Read does not stop the world the way
// runtime.ReadMemStats does.
func peakHeap(fn func()) uint64 {
	var peak atomic.Uint64
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
	}
	read()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	fn()
	close(stop)
	<-done
	read()
	return peak.Load()
}

// memDelta is the allocation and GC activity of one pass.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// measureMem runs fn between two runtime.ReadMemStats calls; the
// two stop-the-world reads sit outside fn.
func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		gcCycles:   b.NumGC - a.NumGC,
		gcPause:    time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}
