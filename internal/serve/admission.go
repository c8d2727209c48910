package serve

// admission is the server's global query-admission budget: a
// fixed-size slot pool shared by every connection. A query holds one
// slot for its whole streaming lifetime (admission to completion,
// cancellation or disconnect), so the slot count bounds the number of
// crawls concurrently competing for the index's pages and the CPU.
// When no slot is free the query is rejected immediately with
// flat.ErrBusy rather than queued: under overload the server stays
// predictable (the client sees busy and can back off or hedge) instead
// of building an invisible convoy.
//
// The only way to hold a slot is run, which releases it in a defer of
// the same function: a slot cannot outlive the query it admitted, on
// any return path or through a panic.
type admission struct {
	slots chan struct{}
}

func newAdmission(n int) *admission {
	return &admission{slots: make(chan struct{}, n)}
}

// run claims a slot without blocking and holds it for exactly fn's
// duration; false means the budget is exhausted, fn did not run and the
// caller must reject the query.
func (a *admission) run(fn func()) bool {
	select {
	case a.slots <- struct{}{}:
	default:
		return false
	}
	defer func() { <-a.slots }()
	fn()
	return true
}

// inflight reports the number of slots currently held.
func (a *admission) inflight() int { return len(a.slots) }

// capacity reports the total slot budget.
func (a *admission) capacity() int { return cap(a.slots) }
