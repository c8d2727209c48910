package serve

import "testing"

// TestAdmissionRunPairsByConstruction pins the slot pool's contract: a
// slot is held for exactly fn's duration, a full pool refuses without
// running fn, and a panicking fn still gives its slot back.
func TestAdmissionRunPairsByConstruction(t *testing.T) {
	a := newAdmission(1)
	ran := false
	if !a.run(func() {
		if got := a.inflight(); got != 1 {
			t.Errorf("inflight inside fn = %d, want 1", got)
		}
		// The pool is full: a second query is refused, its fn not run.
		if a.run(func() { ran = true }) || ran {
			t.Error("run on a full pool: admitted or ran fn")
		}
	}) {
		t.Fatal("run on an empty pool was refused")
	}
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight after fn returned = %d, want 0", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("fn's panic did not propagate")
			}
		}()
		a.run(func() { panic("boom") })
	}()
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight after a panicking fn = %d, want 0", got)
	}
	if !a.run(func() { ran = true }) || !ran {
		t.Error("pool did not admit after a panicking fn")
	}
}
