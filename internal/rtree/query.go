package rtree

import (
	"flat/internal/geom"
	"flat/internal/storage"
)

// RangeQuery returns all indexed elements whose MBR intersects q,
// following every root-to-leaf path whose node MBR intersects q — the
// standard R-tree traversal whose cost the paper's overlap analysis is
// about. Page reads are accounted in the tree's buffer pool.
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
		isLeaf, entries, err := readNode(t.pool, id, entryBuf[:0])
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

// Walk visits every node of the tree top-down, calling fn with the node's
// page id, its depth (0 = root) and its decoded content. It exists for
// invariant checking in tests and for the flatindex CLI's inspect mode.
func (t *Tree) Walk(fn func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error) error {
	type item struct {
		id    storage.PageID
		depth int
	}
	stack := []item{{t.root, 0}}
	//lint:ignore ctxcrawl offline inspect/invariant walk, never on a serving query path
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isLeaf, entries, err := readNode(t.pool, it.id, nil)
		if err != nil {
			return err
		}
		if err := fn(it.id, it.depth, isLeaf, entries); err != nil {
			return err
		}
		if !isLeaf {
			for _, e := range entries {
				stack = append(stack, item{storage.PageID(e.Ref), it.depth + 1})
			}
		}
	}
	return nil
}
