package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"syscall"
)

// cpuSeconds is the CPU time, user plus system, the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // unreachable: RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// calibrate runs a fixed CPU-bound loop of the kind set-up does —
// log-normal draws written as decimal text and parsed back — and
// returns the CPU seconds it took. It calls only the standard library,
// so no change to the program moves it: its time measures how fast the
// host runs at that moment.
func calibrate() float64 {
	cpu0 := cpuSeconds()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 32)
	var sum float64
	for i := 0; i < 120000; i++ {
		buf = strconv.AppendFloat(buf[:0], math.Exp(0.8*rng.NormFloat64()), 'g', -1, 64)
		v, err := strconv.ParseFloat(string(buf), 64)
		if err != nil {
			panic(err) // unreachable: AppendFloat writes a valid float
		}
		sum += v
	}
	calSink = sum
	return cpuSeconds() - cpu0
}

// calSink keeps calibrate's loop from being optimized away.
var calSink float64

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tail returns the highest percentile with at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample, which percentile
// that is, and the sample count. With fewer samples it returns the
// maximum and percentile 100.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100, n
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), n
}
