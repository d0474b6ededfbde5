package main

import (
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// tail is a tail-latency readout: the value at the highest percentile
// that leaves at least tailMinBeyond samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tailOf returns the tail of xs by nearest rank. With n samples that is
// the (tailMinBeyond+1)-th largest, at percentile 100·(n−tailMinBeyond)/n.
// With too few samples for any such percentile it falls back to the
// maximum and records Beyond = 0, so a reader can tell the two apart.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	i := n - 1 - tailMinBeyond
	if i < 0 {
		i = n - 1
	}
	return tail{
		Value:      s[i],
		Percentile: 100 * float64(i+1) / float64(n),
		Beyond:     n - 1 - i,
		Samples:    n,
	}
}

// median returns the median of xs (mean of the middle pair for even n),
// 0 for none.
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
