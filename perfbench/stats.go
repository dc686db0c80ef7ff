package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailPercentile returns the highest whole percentile p of xs that still
// has at least tailMinBeyond samples strictly above its rank, capped at
// want, together with p. With fewer than tailMinBeyond+1 samples no
// percentile qualifies; the maximum is returned with p = 100 so the
// caller can state that the tail is a plain maximum.
func tailPercentile(xs []float64, want int) (value float64, p int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for p = want; p >= 50; p-- {
		// Samples beyond the p-th percentile's rank.
		beyond := n - int(math.Ceil(float64(p)/100*float64(n)))
		if beyond >= tailMinBeyond {
			return quantile(xs, float64(p)/100), p
		}
	}
	return quantile(xs, 1), 100
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime returns the CPU time, user plus system, that the process has
// used so far. Unlike wall time it does not grow while the process waits:
// for an idle worker at the end of a campaign, for a queue, or for a CPU
// the host has given to another guest (steal time).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocatedMB returns the bytes the process has allocated on the heap so
// far, in MiB. It counts allocation work, which does not depend on when
// the collector runs.
func allocatedMB() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// heapSampler polls runtime/metrics (which does not stop the world)
// every heapPoll from start to stop, for two views of the heap: the bytes
// occupied by objects, garbage not yet swept included, and the live heap
// the last collection marked.
type heapSampler struct {
	stopC   chan struct{}
	wg      sync.WaitGroup
	objects []float64 // MiB
	live    []float64 // MiB
}

const (
	objectsMetric = "/memory/classes/heap/objects:bytes"
	liveMetric    = "/gc/heap/live:bytes"
	heapPoll      = 2 * time.Millisecond
)

// startHeapSampler starts polling; when enabled is false it polls nothing
// and stop reports zeros, so an end-to-end run does not pay for wake-ups
// that only the per-layer heap metrics need.
func startHeapSampler(enabled bool) *heapSampler {
	h := &heapSampler{stopC: make(chan struct{})}
	if !enabled {
		return h
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: objectsMetric}, {Name: liveMetric}}
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.objects = append(h.objects, float64(sample[0].Value.Uint64())/(1<<20))
			h.live = append(h.live, float64(sample[1].Value.Uint64())/(1<<20))
			select {
			case <-h.stopC:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// heapUse summarises the sampled heap in MiB.
type heapUse struct {
	liveP99 float64 // the live heap stays under this for 99% of the samples
	peak    float64 // the largest heap, garbage included
}

// stop ends sampling and summarises the samples.
func (h *heapSampler) stop() heapUse {
	close(h.stopC)
	h.wg.Wait()
	return heapUse{liveP99: quantile(h.live, 0.99), peak: quantile(h.objects, 1)}
}
