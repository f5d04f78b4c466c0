package main

import (
	"sync"
	"time"
)

// The host-speed reference. This host is a shared VM that alternates, every
// ten to forty minutes, between a fast state and one in which the solver,
// the daemon and the set-up all run about 1.4× slower (README, calibration
// record). The slow state hits array code and leaves scalar arithmetic
// alone — a dense elimination sweep slows by the same 1.4× as a Design
// call, a chain of multiply-adds by 1.04× — so the reference is the former:
// Gaussian elimination on a refN×refN matrix, the access pattern of the
// simplex code underneath every workload. The harness owns it, so no change
// to the program can move it.
//
// Only setup_s is scaled by it: the one time-based metric the benchmark
// contract requires among the gated ones. The operation metrics are
// reported as measured, with the run's reference reading beside them.
const (
	refN = 320
	// refNominalMs is the kernel's reading in this host's fast state;
	// setup_s is the set-up's wall-clock scaled to it.
	refNominalMs = 8.0
	// refReadings is how many readings one sample takes (~10 ms each).
	refReadings = 5
)

// hostProbe takes the reference readings of one run.
type hostProbe struct {
	mats [2][]float64
	ms   []float64 // every reading so far
}

func newHostProbe() *hostProbe {
	h := &hostProbe{}
	for i := range h.mats {
		h.mats[i] = make([]float64, refN*refN)
	}
	return h
}

// eliminate fills a with a fixed, diagonally dominant matrix and reduces it
// to upper-triangular form.
func eliminate(a []float64) {
	for i := range a {
		a[i] = float64((i*7919)%1000)/1000 + 1
	}
	for i := 0; i < refN; i++ {
		a[i*refN+i] += refN
	}
	for k := 0; k < refN; k++ {
		piv := a[k*refN : (k+1)*refN]
		for i := k + 1; i < refN; i++ {
			row := a[i*refN : (i+1)*refN]
			f := row[k] / piv[k]
			for j := k + 1; j < refN; j++ {
				row[j] -= f * piv[j]
			}
		}
	}
}

// reading runs the kernel on two goroutines at once — the program under
// test is two workers wide on this box, and the two cores need not be in the
// same state — and returns the wall-clock of the slower one in milliseconds.
func (h *hostProbe) reading() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range h.mats {
		wg.Add(1)
		go func(a []float64) {
			defer wg.Done()
			eliminate(a)
		}(h.mats[i])
	}
	wg.Wait()
	d := ms(time.Since(t0))
	h.ms = append(h.ms, d)
	return d
}

// sample is the median of refReadings readings taken now.
func (h *hostProbe) sample() float64 {
	v := make([]float64, refReadings)
	for i := range v {
		v[i] = h.reading()
	}
	return median(v)
}

// atReference scales a duration measured between two samples of the
// reference to the host's nominal speed.
func atReference(d time.Duration, before, after float64) time.Duration {
	return time.Duration(float64(d) * refNominalMs / ((before + after) / 2))
}
