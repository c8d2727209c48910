// Fixtures for the ctxcrawl analyzer: loops performing pager reads
// must consult a context between iterations.
package ctxcrawl

import "context"

type PageID uint64

type pool struct{}

func (pool) ReadPage(id PageID) ([]byte, error) { return nil, nil }

func (pool) ReadInto(id PageID, stats *int) ([]byte, error) { return nil, nil }

// crawlNoCtx reads pages in a loop without ever consulting a context.
func crawlNoCtx(p pool, ids []PageID) error {
	for _, id := range ids { // want `loop performs pager reads but never consults a context`
		if _, err := p.ReadPage(id); err != nil {
			return err
		}
	}
	return nil
}

// crawlErr consults ctx.Err() between reads.
func crawlErr(ctx context.Context, p pool, ids []PageID) error {
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := p.ReadPage(id); err != nil {
			return err
		}
	}
	return nil
}

// crawlSelect consults ctx.Done() in a select between reads.
func crawlSelect(ctx context.Context, p pool, ids []PageID) error {
	for _, id := range ids {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if _, err := p.ReadInto(id, nil); err != nil {
			return err
		}
	}
	return nil
}

func ctxErr(ctx context.Context) error { return ctx.Err() }

// crawlDelegates passes ctx to a helper, delegating the check.
func crawlDelegates(ctx context.Context, p pool, ids []PageID) error {
	for _, id := range ids {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if _, err := p.ReadPage(id); err != nil {
			return err
		}
	}
	return nil
}

// crawlNested: an outer loop consulting ctx does not excuse the inner
// page-read loop.
func crawlNested(ctx context.Context, p pool, ids []PageID) error {
	for range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, id := range ids { // want `loop performs pager reads but never consults a context`
			if _, err := p.ReadPage(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// crawlSuppressed carries a justified suppression and must not be
// reported (and so has no want comment).
func crawlSuppressed(p pool, ids []PageID) error {
	//lint:ignore ctxcrawl fixture: offline walk, never on a serving query path
	for _, id := range ids {
		if _, err := p.ReadPage(id); err != nil {
			return err
		}
	}
	return nil
}

// notARead loops without page reads; nothing to report.
func notARead(ids []PageID) int {
	n := 0
	for range ids {
		n++
	}
	return n
}

// --- priority-frontier shapes: the loop body never touches the pager
// directly; the reads happen one call deep, in same-package helpers.

type frontierItem struct {
	id   PageID
	dist float64
}

type frontier struct {
	items []frontierItem
	p     pool
}

func (h *frontier) len() int { return len(h.items) }

func (h *frontier) popMin() frontierItem {
	it := h.items[0]
	h.items = h.items[1:]
	return it
}

// resolve reads the popped item's page — a direct pager read, making
// resolve a read helper and its callers' loops crawls.
func (h *frontier) resolve(it frontierItem) ([]byte, error) {
	return h.p.ReadPage(it.id)
}

// popLoopNoCtx is the best-first pop loop without a context: every
// iteration costs a page read through resolve, so it must be reported
// even though no pager call appears in the loop body.
func popLoopNoCtx(h *frontier) error {
	for h.len() > 0 { // want `loop performs pager reads but never consults a context`
		it := h.popMin()
		if _, err := h.resolve(it); err != nil {
			return err
		}
	}
	return nil
}

// popLoopCtx is the same shape consulting ctx.Err() between pops.
func popLoopCtx(ctx context.Context, h *frontier) error {
	for h.len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		it := h.popMin()
		if _, err := h.resolve(it); err != nil {
			return err
		}
	}
	return nil
}

// popLoopNoReads pops without resolving: no helper in the body reads
// pages, so there is nothing to report.
func popLoopNoReads(h *frontier) float64 {
	sum := 0.0
	for h.len() > 0 {
		sum += h.popMin().dist
	}
	return sum
}

// resolveTwice reads through resolve, which itself reads through the
// pager — one level. readsTransitively calls resolveTwice: two levels
// deep, deliberately out of scope (resolveTwice's own body has no
// loop; its callers do not inherit the taint).
func resolveTwice(h *frontier, it frontierItem) ([]byte, error) {
	return h.resolve(it)
}

func readsTransitively(h *frontier) {
	for h.len() > 0 {
		it := h.popMin()
		resolveTwice(h, it)
	}
}
