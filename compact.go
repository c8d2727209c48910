package flat

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// AutoCompact configures the background compactor of an index
// (Options.AutoCompact). The zero value disables it: Rebuild
// stays a purely manual operation. With either trigger set, a
// maintenance goroutine watches the staged-update delta and folds it in
// (exactly what a manual Rebuild does — dirty shards only, crash-safe
// generation swap, WAL rotation) once a trigger fires. Queries never
// block on it: Rebuild refuses to run under in-flight queries
// (ErrBusy), so the compactor retries with backoff until it finds a
// quiet moment.
type AutoCompact struct {
	// DirtyRatio fires when any shard's staged-insert count reaches this
	// fraction of its bulkloaded size (0.1 = compact a shard once its
	// delta is 10% of its base). <= 0 disables the ratio trigger.
	DirtyRatio float64
	// MaxDelta fires when the total pending operations (staged inserts
	// plus staged deletes) reach this count, whatever their distribution
	// over shards. <= 0 disables the count trigger.
	MaxDelta int
}

func (a AutoCompact) enabled() bool { return a.DirtyRatio > 0 || a.MaxDelta > 0 }

// compactor is the background maintenance goroutine behind AutoCompact.
// Staging calls wake it through the 1-buffered kick channel (sends
// coalesce: a burst of stagings costs one wake-up); it re-evaluates the
// triggers itself, so spurious kicks are cheap.
type compactor struct {
	ix       *Index
	cfg      AutoCompact
	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Activity counters, read by CompactorStats (and through it the
	// flatserve admin endpoint) while the compactor runs.
	runs          atomic.Int64 // background Rebuilds completed
	shardsRebuilt atomic.Int64 // shards those rebuilds folded
	busyRetries   atomic.Int64 // Rebuild attempts bounced off in-flight queries
	lastRunNano   atomic.Int64 // wall clock of the last completed run, 0 = never
}

// CompactorStats reports the background compactor's activity. The zero
// value (Enabled false) means the index runs without one.
type CompactorStats struct {
	// Enabled reports whether Options.AutoCompact started a
	// background compactor for this index.
	Enabled bool
	// Runs counts completed background Rebuilds.
	Runs int64
	// ShardsRebuilt counts the shards those runs re-bulkloaded.
	ShardsRebuilt int64
	// BusyRetries counts Rebuild attempts that found queries in flight
	// (ErrBusy) and backed off.
	BusyRetries int64
	// LastRun is the wall-clock time the last run completed; zero when
	// the compactor has never folded anything.
	LastRun time.Time
}

// CompactorStats snapshots the background compactor's activity
// counters. Safe to call concurrently with everything, including after
// Close (the counters outlive the compactor goroutine).
func (ix *Index) CompactorStats() CompactorStats {
	c := ix.compact
	if c == nil {
		return CompactorStats{}
	}
	st := CompactorStats{
		Enabled:       true,
		Runs:          c.runs.Load(),
		ShardsRebuilt: c.shardsRebuilt.Load(),
		BusyRetries:   c.busyRetries.Load(),
	}
	if ns := c.lastRunNano.Load(); ns != 0 {
		st.LastRun = time.Unix(0, ns)
	}
	return st
}

// startCompactor launches the compactor when cfg enables it. Called
// once, before the index is shared; ix.compact is immutable afterwards
// (kickCompactor reads it concurrently).
func (ix *Index) startCompactor(cfg AutoCompact) {
	if !cfg.enabled() {
		return
	}
	c := &compactor{
		ix:   ix,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	ix.compact = c
	go c.run()
	// An opened index may already carry a replayed delta past the
	// thresholds; evaluate once without waiting for the first staging.
	ix.kickCompactor()
}

// kickCompactor wakes the compactor, if one is running. Never blocks;
// a kick while one is already pending coalesces with it.
func (ix *Index) kickCompactor() {
	if c := ix.compact; c != nil {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// shutdown stops the compactor and waits for it to finish (including
// any Rebuild it is in the middle of). Idempotent.
func (c *compactor) shutdown() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

func (c *compactor) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		if c.due() {
			c.compactWithBackoff()
		}
	}
}

// due evaluates the triggers against the current delta. It reads the
// set directly, holding no side of the query guard: the compactor's own
// bookkeeping must never make a Close or DropCache report ErrBusy.
func (c *compactor) due() bool {
	st := c.ix.set.DeltaStats()
	if c.cfg.MaxDelta > 0 && st.Inserts+st.Deletes >= c.cfg.MaxDelta {
		return true
	}
	if c.cfg.DirtyRatio > 0 {
		for _, sh := range st.Shards {
			if sh.Base > 0 && float64(sh.Staged) >= c.cfg.DirtyRatio*float64(sh.Base) {
				return true
			}
		}
	}
	return false
}

// compactWithBackoff runs one Rebuild, retrying around in-flight
// queries: Rebuild returns ErrBusy rather than blocking them, so the
// compactor backs off (doubling up to a cap) until it lands in a quiet
// moment or the index shuts down. Any other failure is dropped — the
// staged updates stay staged, the index keeps serving, and the next
// staging call kicks another attempt.
func (c *compactor) compactWithBackoff() {
	delay := time.Millisecond
	const maxDelay = 250 * time.Millisecond
	for {
		rebuilt, err := c.ix.Rebuild()
		if err == nil {
			c.runs.Add(1)
			c.shardsRebuilt.Add(int64(len(rebuilt)))
			c.lastRunNano.Store(time.Now().UnixNano())
			return
		}
		if !errors.Is(err, ErrBusy) {
			return
		}
		c.busyRetries.Add(1)
		select {
		case <-c.stop:
			return
		case <-time.After(delay):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}
