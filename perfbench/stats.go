package main

import (
	"math"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// tailMinBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const tailMinBeyond = 10

// quantile is one reported percentile: the value, the percentile it was
// actually taken at (lowered by the tail rule) and the sample count.
type quantile struct {
	Value float64 `json:"value"`
	P     float64 `json:"p"`
	N     int     `json:"n"`
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the nearest-rank p-th percentile of xs, lowered to the
// highest percentile that still has tailMinBeyond samples above it. With
// too few samples for any such percentile it reports the maximum (P = 1).
func tail(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p*float64(n))) - 1 // nearest-rank index
	if k < 0 {
		k = 0
	}
	if n-1-k < tailMinBeyond {
		k = n - 1 - tailMinBeyond
		if k < 0 {
			return quantile{Value: s[n-1], P: 1, N: n}
		}
		p = float64(k+1) / float64(n)
	}
	return quantile{Value: s[k], P: p, N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name fits the metric-name charset.
func validName(name string) bool { return metricName.MatchString(name) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
