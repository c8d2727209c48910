package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted: the smallest value with at least p of the samples at or
// below it. It returns 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

// sample is one operation of the timed phase. Times are nanoseconds;
// end is measured from the start of the phase. A failed operation —
// an error, a refusal, a wrong result count — misses any latency limit:
// its lat and ttfr are the length of the phase, and it is no part of qps.
type sample struct {
	end    int64
	lat    int64 // closed loop: request sent → last frame; open loop: due → ack
	ttfr   int64 // request sent → first element or the single reply
	late   int64 // open loop only: due → actually sent
	kind   opKind
	failed bool
}

// openLoopDue returns when write i of an open loop at rate per second
// is due, measured from the start of the phase.
func openLoopDue(i, rate int) time.Duration {
	return time.Duration(i) * time.Second / time.Duration(rate)
}
