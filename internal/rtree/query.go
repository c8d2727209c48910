package rtree

import (
	"flat/internal/geom"
	"flat/internal/storage"
)

// RangeQuery returns all indexed elements whose MBR intersects q,
// following every root-to-leaf path whose node MBR intersects q — the
// standard R-tree traversal whose cost the paper's overlap analysis is
// about. Page reads are counted on a Tally view.
func (t *Tree) RangeQuery(q geom.MBR) ([]geom.Element, error) {
	var result []geom.Element
	err := t.query(q, func(e NodeEntry) {
		result = append(result, geom.Element{ID: e.Ref, Box: e.Box})
	})
	return result, err
}

// CountQuery is RangeQuery without materializing results; it returns the
// number of intersecting elements. The page access pattern is identical.
func (t *Tree) CountQuery(q geom.MBR) (int, error) {
	n := 0
	err := t.query(q, func(NodeEntry) { n++ })
	return n, err
}

// PointQuery returns all elements whose MBR contains point p. Per the
// paper (Section III), the number of pages this reads is the standard
// measure of tree overlap: an overlap-free tree reads exactly Height
// pages.
func (t *Tree) PointQuery(p geom.Vec3) ([]geom.Element, error) {
	return t.RangeQuery(geom.PointBox(p))
}

// query walks the tree and invokes visit for every leaf entry whose MBR
// intersects q.
func (t *Tree) query(q geom.MBR, visit func(NodeEntry)) error {
	stack := make([]storage.PageID, 0, 64)
	stack = append(stack, t.root)
	entryBuf := make([]NodeEntry, 0, NodeCapacity)
	//lint:ignore ctxcrawl baseline R-tree for ablation benchmarks, never on a serving query path
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isLeaf, entries, err := readNode(t.pool, id, t.tally, entryBuf[:0])
		if err != nil {
			return err
		}
		if isLeaf {
			for _, e := range entries {
				if e.Box.Intersects(q) {
					visit(e)
				}
			}
			continue
		}
		for _, e := range entries {
			if e.Box.Intersects(q) {
				stack = append(stack, storage.PageID(e.Ref))
			}
		}
	}
	return nil
}
