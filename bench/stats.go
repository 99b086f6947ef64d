package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// summary is the five-number description recorded next to every
// median the benchmark reports: the shared box shows bursts of ~30%
// slowdown lasting seconds, so a median without its quartiles and
// sample count cannot be told from a lucky run.
type summary struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	Med float64 `json:"median"`
	Q3  float64 `json:"q3"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted evaluates the q-quantile (0..1) of an ascending slice
// with the "exclusive" rule Python's statistics.quantiles uses by
// default: position q*(n+1) in 1-based ranks, linearly interpolated and
// clamped to the extremes. Using the driver's rule keeps the spread the
// benchmark reports equal to the spread the driver computes.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1 // 0-based fractional rank
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value of xs (mean of the middle two for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// summarize computes the recorded statistics of a sample.
func summarize(xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N:   len(s),
		Q1:  quantileSorted(s, 0.25),
		Med: quantileSorted(s, 0.5),
		Q3:  quantileSorted(s, 0.75),
		Min: s[0],
		Max: s[len(s)-1],
	}
}

// spread is the interquartile distance as a share of the median — the
// repeatability figure every bound is judged against.
func (s summary) spread() float64 {
	if s.N < 2 || s.Med == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Med)
}

// tail returns the first of the given percentiles (highest first) that
// still has at least ten samples beyond it, with its label; with too
// few samples for any it falls back to the median and says so. A
// percentile with a handful of samples above it is one slow request,
// not a distribution.
func tail(xs []float64, percentiles ...int) (value float64, label string) {
	s := sorted(xs)
	for _, pct := range percentiles {
		if len(s)*(100-pct) >= 10*100 {
			return quantileSorted(s, float64(pct)/100), fmt.Sprintf("p%d", pct)
		}
	}
	return quantileSorted(s, 0.5), "p50"
}

// timed is one completed operation: when it ended, counted from the
// start of the measured interval, and its value in the metric's unit.
type timed struct {
	end time.Duration
	v   float64
}

// quietWindows is how many equal windows a measured interval is cut
// into.
const quietWindows = 10

// quietest cuts the measured interval into quietWindows equal windows
// (an operation belongs to the window it ended in) and returns the
// values and the completion rate of the window with the lowest median.
// Host noise on the shared box only ever slows things down, in bursts
// of seconds: the median of the whole interval moves with the share of
// it a burst covered, the median of the least disturbed tenth does not
// unless the burst covered all of it. Windows holding under half their
// share of the operations (the tail end of a closed loop) are not
// candidates; with too few operations to fill windows the whole
// interval is the window.
func quietest(ops []timed, span time.Duration) (vals []float64, perSec float64) {
	all := make([]float64, len(ops))
	for i, o := range ops {
		all[i] = o.v
	}
	if span <= 0 {
		return all, 0
	}
	vals, perSec = all, float64(len(ops))/span.Seconds()
	width := span / quietWindows
	if width <= 0 || len(ops) < 10*quietWindows {
		return vals, perSec
	}
	buckets := make([][]float64, quietWindows)
	for _, o := range ops {
		w := min(int(o.end/width), quietWindows-1)
		buckets[w] = append(buckets[w], o.v)
	}
	best := math.Inf(1)
	for _, b := range buckets {
		if len(b)*2*quietWindows < len(ops) {
			continue
		}
		if m := median(b); m < best {
			best, vals, perSec = m, b, float64(len(b))/width.Seconds()
		}
	}
	return vals, perSec
}
