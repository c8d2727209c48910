package main

import (
	"testing"

	"flat/internal/geom"
)

func cube(id uint64, x, y, z, side float64) geom.Element {
	return geom.Element{ID: id, Box: geom.Box(geom.V(x, y, z), geom.V(x+side, y+side, z+side))}
}

func testModel() *model {
	m := newModel([]geom.Element{
		cube(0, 0, 0, 0, 1),
		cube(1, 2, 0, 0, 1),
		cube(2, 4, 0, 0, 1),
		cube(3, 6, 0, 0, 1),
	})
	m.insert(cube(4, 8, 0, 0, 1))
	m.delete(1)
	return m
}

func TestOracleRange(t *testing.T) {
	m := testModel()
	q := geom.Box(geom.V(-1, -1, -1), geom.V(4.5, 2, 2)) // 0, (1 deleted), 2
	if err := m.checkRange(q, []geom.Element{m.els[2], m.els[0]}); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for name, got := range map[string][]geom.Element{
		"missing":   {m.els[0]},
		"deleted":   {m.els[0], m.els[1], m.els[2]},
		"outside":   {m.els[0], m.els[2], m.els[3]},
		"duplicate": {m.els[0], m.els[2], m.els[2]},
		"unknown":   {m.els[0], m.els[2], cube(99, 0, 0, 0, 1)},
	} {
		if err := m.checkRange(q, got); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	// A widened box may pull in an element that misses by less than slack.
	near := geom.Box(geom.V(-1, -1, -1), geom.V(4-slack/2, 2, 2))
	if err := m.checkRange(near, []geom.Element{m.els[0], m.els[2]}); err != nil {
		t.Errorf("answer within slack rejected: %v", err)
	}
	if err := m.checkRange(near, []geom.Element{m.els[0]}); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
}

func TestOracleCount(t *testing.T) {
	m := testModel()
	q := geom.Box(geom.V(-1, -1, -1), geom.V(4.5, 2, 2))
	if err := m.checkCount(q, 2); err != nil {
		t.Error(err)
	}
	if m.checkCount(q, 1) == nil || m.checkCount(q, 3) == nil {
		t.Error("wrong count accepted")
	}
	if m.live != 4 {
		t.Errorf("live = %d, want 4", m.live)
	}
}

func TestOracleNN(t *testing.T) {
	m := testModel()
	p := geom.V(4.5, 0.5, 0.5) // inside 2; then 3 (1.5 away); 0 and 4 (3.5 away)
	if err := m.checkNN(p, 2, []geom.Element{m.els[2], m.els[3]}); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for name, got := range map[string][]geom.Element{
		"short":       {m.els[2]},
		"order":       {m.els[3], m.els[2]},
		"not nearest": {m.els[2], m.els[0]},
		"deleted":     {m.els[2], m.els[1]},
		"duplicate":   {m.els[2], m.els[2]},
	} {
		if err := m.checkNN(p, 2, got); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	// Ties at the k-th distance: either tied element is a right answer.
	for _, third := range []geom.Element{m.els[0], m.els[4]} {
		if err := m.checkNN(p, 3, []geom.Element{m.els[2], m.els[3], third}); err != nil {
			t.Errorf("tied k-th element %d rejected: %v", third.ID, err)
		}
	}
	// Asking for more than is live returns what is live.
	if err := m.checkNN(p, 10, []geom.Element{m.els[2], m.els[3], m.els[0], m.els[4]}); err != nil {
		t.Errorf("k beyond the live count rejected: %v", err)
	}
}
