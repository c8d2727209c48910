package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRunBatchFirstErrorDeterministic pins the batch error contract:
// whichever worker finishes first, the error of the lowest-indexed
// failing item is the one reported.
func TestRunBatchFirstErrorDeterministic(t *testing.T) {
	errAt := map[int]error{
		3: fmt.Errorf("item 3 failed"),
		7: fmt.Errorf("item 7 failed"),
	}
	for trial := 0; trial < 200; trial++ {
		var mu sync.Mutex
		ran := map[int]bool{}
		err := RunBatch(context.Background(), 16, 8, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			return errAt[i]
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("trial %d: RunBatch = %v, want deterministic first error of item 3", trial, err)
		}
		mu.Lock()
		ok := ran[3]
		mu.Unlock()
		if !ok {
			t.Fatalf("trial %d: failing item 3 never ran", trial)
		}
	}
}

// TestRunBatchHonorsContext: a done context stops the batch between
// items and surfaces ctx.Err().
func TestRunBatchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := RunBatch(ctx, 64, 4, func(i int) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch on done ctx = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("RunBatch on done ctx still ran %d items", calls)
	}
}
