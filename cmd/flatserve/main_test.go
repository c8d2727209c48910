package main

import (
	"math"
	"testing"

	"flat"
)

// TestParseDelete pins that -delete's element id is an exact uint64:
// ids above 2^53 used to be rounded through float64.
func TestParseDelete(t *testing.T) {
	box := flat.Box(flat.V(1, 2, 3), flat.V(4.5, 5, 6))
	for _, tc := range []struct {
		in   string
		id   uint64
		fail bool
	}{
		{in: "17,1,2,3,4.5,5,6", id: 17},
		{in: " 17 , 1, 2, 3, 4.5, 5, 6", id: 17},
		{in: "9007199254740993,1,2,3,4.5,5,6", id: 1<<53 + 1},
		{in: "18446744073709551615,1,2,3,4.5,5,6", id: math.MaxUint64},
		{in: "18446744073709551616,1,2,3,4.5,5,6", fail: true}, // overflows uint64
		{in: "-1,1,2,3,4.5,5,6", fail: true},
		{in: "1.5,1,2,3,4.5,5,6", fail: true},
		{in: "1e3,1,2,3,4.5,5,6", fail: true},
		{in: "17,1,2,3,4.5,5", fail: true},   // a coordinate short
		{in: "17,1,2,3,4.5,5,x", fail: true}, // not a number
		{in: "17", fail: true},
		{in: "", fail: true},
	} {
		id, got, err := parseDelete(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("parseDelete(%q) = %d, %v; want an error", tc.in, id, got)
			}
			continue
		}
		if err != nil || id != tc.id || got != box {
			t.Errorf("parseDelete(%q) = %d, %v, %v; want %d, %v", tc.in, id, got, err, tc.id, box)
		}
	}
}
