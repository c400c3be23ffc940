package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the
// same code and seed can run half again as fast twenty minutes later, far
// beyond any bound a regression check could use. So each run also times a
// fixed piece of work that owes nothing to FlashExtract, in short slices
// around its set-ups and after every stretch of its measured run, and
// scales its timings to a host on which that work runs refRate units a
// second. A change to the program moves the workload's timings and not the
// reference; a slower or faster host moves both.
const (
	// refRate is the reference rate timings are scaled to: about the rate
	// of a 2-vCPU Xeon KVM guest, so scaled times read close to that
	// host's wall-clock times.
	refRate = 2500.0
	// refSlice is how long each reference slice runs.
	refSlice = 50 * time.Millisecond
)

// hostReference is the reference work: sorting strings, filling a map and
// quoting strings, the kinds of work extraction does, on buffers allocated
// once, so that the program's heap and garbage collector do not reach it.
// It keeps the rate of every slice it has timed.
type hostReference struct {
	keys, work []string
	counts     map[string]int
	out        []byte
	rates      []float64
}

func newHostReference() *hostReference {
	r := &hostReference{counts: make(map[string]int, 2048)}
	for i := 0; i < 2048; i++ {
		r.keys = append(r.keys, "key-"+strconv.Itoa(i*7919%10007))
	}
	r.work = make([]string, len(r.keys))
	return r
}

// unit does one unit of reference work.
func (r *hostReference) unit() {
	copy(r.work, r.keys)
	sort.Strings(r.work)
	clear(r.counts)
	for i, k := range r.work {
		r.counts[k] += i
	}
	r.out = r.out[:0]
	for _, k := range r.work[:512] {
		r.out = strconv.AppendQuote(r.out, k)
	}
}

// slice collects the program's garbage, so that no collection runs during
// the slice, and times the reference units of one slice.
func (r *hostReference) slice() {
	runtime.GC()
	n := 0
	start := time.Now()
	for time.Since(start) < refSlice {
		r.unit()
		n++
	}
	r.rates = append(r.rates, float64(n)/time.Since(start).Seconds())
}

// scale is the median rate of the slices timed since the last call, as a
// multiple of refRate, and starts a new set of slices.
func (r *hostReference) scale() float64 {
	s := median(r.rates) / refRate
	r.rates = r.rates[:0]
	return s
}
