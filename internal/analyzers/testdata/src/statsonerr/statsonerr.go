// Fixtures for the statsonerr analyzer: error returns must not discard
// the QueryStats of work already performed.
package statsonerr

import "errors"

var errBoom = errors.New("boom")

type QueryStats struct{ Reads int }

func (s *QueryStats) Add(o QueryStats) { s.Reads += o.Reads }

type PageID uint64

type pool struct{}

func (pool) ReadPage(id PageID) ([]byte, error) { return nil, nil }

func work() (QueryStats, error) { return QueryStats{Reads: 1}, nil }

// earlyValidation returns zero stats before any work; fine.
func earlyValidation(n int) (QueryStats, error) {
	if n < 0 {
		return QueryStats{}, errBoom
	}
	return work()
}

// discards throws away the stats work accumulated.
func discards() (QueryStats, error) {
	st, err := work()
	if err != nil {
		return QueryStats{}, err // want `returns zero QueryStats alongside a non-nil error`
	}
	return st, nil
}

// merges returns the partial stats next to the error; fine.
func merges() (QueryStats, error) {
	var total QueryStats
	st, err := work()
	total.Add(st)
	if err != nil {
		return total, err
	}
	return total, nil
}

// pager reads are stats-producing work too.
func reads(p pool, id PageID) (QueryStats, error) {
	var st QueryStats
	if _, err := p.ReadPage(id); err != nil {
		return QueryStats{}, err // want `returns zero QueryStats alongside a non-nil error`
	}
	st.Reads++
	return st, nil
}

// scatter work inside a closure counts as work of the outer function.
func scatter(p pool, ids []PageID) (QueryStats, error) {
	var st QueryStats
	run := func() {
		for _, id := range ids {
			p.ReadPage(id)
		}
	}
	run()
	if len(ids) == 0 {
		return QueryStats{}, errBoom // want `returns zero QueryStats alongside a non-nil error`
	}
	return st, nil
}

// extraResults returns more than stats+error; the trailing-error shape
// still matches.
func extraResults() (int, QueryStats, error) {
	st, err := work()
	if err != nil {
		return 0, QueryStats{}, err // want `returns zero QueryStats alongside a non-nil error`
	}
	return 1, st, nil
}

// suppressed documents why this path performed no work.
func suppressed(try bool) (QueryStats, error) {
	if try {
		if _, err := work(); err == nil {
			return QueryStats{Reads: 1}, nil
		}
	}
	//lint:ignore statsonerr fixture: the failed attempt performed no reads
	return QueryStats{}, errBoom
}
