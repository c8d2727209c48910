package str

import "flat/internal/geom"

// fanout is the node capacity of a Tree.
const fanout = 16

// Tree is an STR-packed implicit tree held in memory, over items the
// caller keeps and names by int32 position: the staged delta's runs and
// Build's neighbor join. Pos lists the positions in Tile order (level
// -1); node i of Levels[l] bounds nodes [i·fanout, (i+1)·fanout) of
// level l-1, and the last level is the root alone. Item boxes are not
// copied: box maps a position to its item's box. A packed Tree is never
// modified, so it is safe for concurrent readers.
type Tree struct {
	Pos    []int32
	Levels [][]geom.MBR
}

// Pack tiles pos, which must not be empty, in place on its items' box
// centers and builds the levels above it.
func Pack(pos []int32, box func(int32) geom.MBR) Tree {
	Tile(pos, func(p int32) geom.Vec3 { return box(p).Center() }, fanout)
	t := Tree{Pos: pos}
	for n := len(pos); len(t.Levels) == 0 || n > 1; n = len(t.Levels[t.Top()]) {
		level := make([]geom.MBR, (n+fanout-1)/fanout)
		for i := range n {
			b := t.Box(t.Top(), i, box)
			if i%fanout > 0 {
				b = b.Union(level[i/fanout])
			}
			level[i/fanout] = b
		}
		t.Levels = append(t.Levels, level)
	}
	return t
}

// Top returns the root's level; the root is node 0.
func (t *Tree) Top() int { return len(t.Levels) - 1 }

// Box returns the box of node i of level (-1: the item at Pos[i]).
func (t *Tree) Box(level, i int, box func(int32) geom.MBR) geom.MBR {
	if level < 0 {
		return box(t.Pos[i])
	}
	return t.Levels[level][i]
}

// Children returns the index range, in the level below, of a node's
// children.
func (t *Tree) Children(level, node int) (lo, hi int) {
	n := len(t.Pos)
	if level > 0 {
		n = len(t.Levels[level-1])
	}
	lo = node * fanout
	return lo, min(lo+fanout, n)
}

// Search hands fn the position of every item whose box intersects q. A
// q that misses the root box costs one box test and allocates nothing.
func (t *Tree) Search(q geom.MBR, box func(int32) geom.MBR, fn func(int32)) {
	t.visit(q, t.Top(), 0, box, fn)
}

// visit walks the subtree of node of level (see Search).
func (t *Tree) visit(q geom.MBR, level, node int, box func(int32) geom.MBR, fn func(int32)) {
	if !t.Box(level, node, box).Intersects(q) {
		return
	}
	if level < 0 {
		fn(t.Pos[node])
		return
	}
	lo, hi := t.Children(level, node)
	for c := lo; c < hi; c++ {
		t.visit(q, level-1, c, box, fn)
	}
}
