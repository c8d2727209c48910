package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The open loop is due on a fixed grid whatever the acks do: write i at
// i/rate, so a second holds exactly rate writes.
func TestOpenLoopSchedule(t *testing.T) {
	if got := openLoopDue(0, writesPerSecond); got != 0 {
		t.Errorf("first write due at %v, want 0", got)
	}
	if got := openLoopDue(1, writesPerSecond); got != 5*time.Millisecond {
		t.Errorf("second write due at %v, want 5ms", got)
	}
	if got := openLoopDue(writesPerSecond, writesPerSecond); got != time.Second {
		t.Errorf("write %d due at %v, want 1s", writesPerSecond, got)
	}
	for i := 1; i < 1000; i++ {
		if openLoopDue(i, writesPerSecond) <= openLoopDue(i-1, writesPerSecond) {
			t.Fatalf("schedule not increasing at %d", i)
		}
	}
}

// The write schedule deletes only what it inserted earlier, once each.
func TestWriteScheduleDeletesEarlierInserts(t *testing.T) {
	d := generate(7, 2000, 500)
	inserted := map[uint64]bool{}
	deleted := map[uint64]bool{}
	dels := 0
	for i, w := range d.writes {
		switch w.kind {
		case opInsert:
			if w.el.ID < 2000+uint64(len(d.stagedIns)) {
				t.Fatalf("write %d reuses id %d", i, w.el.ID)
			}
			inserted[w.el.ID] = true
		case opDelete:
			dels++
			if !inserted[w.el.ID] || deleted[w.el.ID] {
				t.Fatalf("write %d deletes id %d, which is not a live timed insert", i, w.el.ID)
			}
			deleted[w.el.ID] = true
		}
	}
	if dels != len(d.writes)/deleteEvery {
		t.Errorf("%d deletes in %d writes, want one in %d", dels, len(d.writes), deleteEvery)
	}
	again := generate(7, 2000, 500)
	for i := range d.writes {
		if d.writes[i] != again.writes[i] {
			t.Fatalf("write %d differs between two generations of one seed", i)
		}
	}
}
