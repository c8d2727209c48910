package main

import (
	"fmt"
	"sort"

	"flat/internal/geom"
)

// slack is how far a returned box may reach beyond the element's true
// box. Page format v2 stores conservatively widened boxes (about 2^-32
// of a page's extent per axis), so a served result set may hold an
// element whose true box misses the query by less than that; the
// oracle accepts any answer between the exact set and the set at this
// slack, which is orders of magnitude above the widening and below the
// smallest element.
const slack = 1e-6

// model is the brute-force reference: every element ever live, at the
// index equal to its id (base ids are 0..n-1 and inserts continue from
// n), plus a tombstone per element. Staging is last-op-wins, and the
// benchmark never re-inserts a deleted id, so a tombstone is final.
type model struct {
	els  []geom.Element
	dead []bool
	live int
}

func newModel(base []geom.Element) *model {
	return &model{
		els:  append([]geom.Element(nil), base...),
		dead: make([]bool, len(base)),
		live: len(base),
	}
}

func (m *model) insert(e geom.Element) {
	if e.ID != uint64(len(m.els)) {
		panic(fmt.Sprintf("model: insert of id %d out of order (next is %d)", e.ID, len(m.els)))
	}
	m.els = append(m.els, e)
	m.dead = append(m.dead, false)
	m.live++
}

func (m *model) delete(id uint64) {
	if !m.dead[id] {
		m.dead[id] = true
		m.live--
	}
}

func (m *model) apply(w writeOp) {
	if w.kind == opInsert {
		m.insert(w.el)
	} else {
		m.delete(w.el.ID)
	}
}

// bounds returns how many live elements intersect q exactly and at
// slack: a correct count lies between the two.
func (m *model) bounds(q geom.MBR) (exact, loose int) {
	wide := q.Expand(slack)
	for i, e := range m.els {
		if m.dead[i] || !e.Box.Intersects(wide) {
			continue
		}
		loose++
		if e.Box.Intersects(q) {
			exact++
		}
	}
	return exact, loose
}

func (m *model) checkCount(q geom.MBR, got int) error {
	exact, loose := m.bounds(q)
	if got < exact || got > loose {
		return fmt.Errorf("count %d outside oracle bounds [%d, %d] for %v", got, exact, loose, q)
	}
	return nil
}

// checkRange verifies set equality up to slack: every live element
// that intersects q is in got, every element of got is live and
// intersects q at slack, and none appears twice.
func (m *model) checkRange(q geom.MBR, got []geom.Element) error {
	wide := q.Expand(slack)
	seen := make(map[uint64]bool, len(got))
	for _, e := range got {
		if seen[e.ID] {
			return fmt.Errorf("element %d returned twice for %v", e.ID, q)
		}
		seen[e.ID] = true
		if e.ID >= uint64(len(m.els)) || m.dead[e.ID] {
			return fmt.Errorf("element %d returned for %v is not live", e.ID, q)
		}
		if !m.els[e.ID].Box.Intersects(wide) {
			return fmt.Errorf("element %d returned for %v does not intersect it", e.ID, q)
		}
	}
	for i, e := range m.els {
		if !m.dead[i] && e.Box.Intersects(q) && !seen[e.ID] {
			return fmt.Errorf("element %d intersects %v but was not returned (%d results)", e.ID, q, len(got))
		}
	}
	return nil
}

// checkNN verifies a k-nearest answer: k live elements (fewer only if
// fewer are live), no repeats, in nondecreasing distance, none farther
// than brute force's k-th distance plus slack — k distinct elements
// within the true k-th distance are the k nearest.
func (m *model) checkNN(p geom.Vec3, k int, got []geom.Element) error {
	want := min(k, m.live)
	if len(got) != want {
		return fmt.Errorf("nn %v: %d results, want %d", p, len(got), want)
	}
	if want == 0 {
		return nil
	}
	// The k smallest true distances, by insertion into a sorted window.
	best := make([]float64, 0, want)
	for i, e := range m.els {
		if m.dead[i] {
			continue
		}
		d := e.Box.DistToPoint(p)
		if len(best) == want && d >= best[want-1] {
			continue
		}
		at := sort.SearchFloat64s(best, d)
		if len(best) < want {
			best = append(best, 0)
		}
		copy(best[at+1:], best[at:])
		best[at] = d
	}
	seen := make(map[uint64]bool, len(got))
	prev := -1.0
	for _, e := range got {
		if seen[e.ID] {
			return fmt.Errorf("nn %v: element %d returned twice", p, e.ID)
		}
		seen[e.ID] = true
		if e.ID >= uint64(len(m.els)) || m.dead[e.ID] {
			return fmt.Errorf("nn %v: element %d is not live", p, e.ID)
		}
		d := e.Box.DistToPoint(p)
		if d < prev {
			return fmt.Errorf("nn %v: distance %g after %g breaks the order", p, d, prev)
		}
		prev = d
		if td := m.els[e.ID].Box.DistToPoint(p); td > best[want-1]+slack {
			return fmt.Errorf("nn %v: element %d at %g is beyond the true k-th distance %g", p, e.ID, td, best[want-1])
		}
	}
	return nil
}
