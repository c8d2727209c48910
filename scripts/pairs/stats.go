package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks (the "type 7" rule: q = 0.25 of
// 1, 2, 3, 4 is 1.75).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is one side's runs of one metric.
type summary struct {
	median, q1, q3 float64
}

func summarize(xs []float64) summary {
	s := slices.Sorted(slices.Values(xs))
	return summary{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75)}
}

// iqr is the distance between the quartiles.
func (s summary) iqr() float64 { return s.q3 - s.q1 }

// comparison is one metric over paired runs: parent[i] and change[i]
// ran back to back.
type comparison struct {
	parent, change      summary
	wins, losses, ties  int
	lowerBetter         bool
	improved, regressed bool // the claim rule's verdict, either way
}

// compare applies the claim rule to paired runs of one metric: a side
// is better when it wins at least nine tenths of all pairs, ties
// counting for neither, and its median beats the other's by more than
// the distance between the parent's quartiles. A metric that meets
// neither is unresolved.
func compare(parent, change []float64, lowerBetter bool) comparison {
	c := comparison{parent: summarize(parent), change: summarize(change), lowerBetter: lowerBetter}
	for i := range parent {
		switch d := change[i] - parent[i]; {
		case d == 0:
			c.ties++
		case (d < 0) == lowerBetter:
			c.wins++
		default:
			c.losses++
		}
	}
	gain := c.change.median - c.parent.median
	if lowerBetter {
		gain = -gain
	}
	// Integer arithmetic: 9 of 10 is exactly nine tenths.
	need := func(k int) bool { return 10*k >= 9*len(parent) }
	c.improved = need(c.wins) && gain > c.parent.iqr()
	c.regressed = need(c.losses) && -gain > c.parent.iqr()
	return c
}

// verdict names the claim rule's outcome; a metric every pair ties on
// is equal.
func (c comparison) verdict() string {
	switch {
	case c.wins+c.losses == 0:
		return "equal"
	case c.improved:
		return "better"
	case c.regressed:
		return "worse"
	}
	return "unresolved"
}
