package rtree

import (
	"fmt"

	"flat/internal/geom"
	"flat/internal/storage"
)

// DynTree is an insertion-built R-tree (Guttman's original algorithm
// with the quadratic split heuristic). The paper's evaluation compares
// only bulkloaded trees, arguing they "outperform other R-Tree variants
// such as the R*-Tree, primarily due to better page utilization"
// (Section VII); this implementation exists to validate that claim — see
// the ablation experiment in internal/bench.
//
// DynTree shares the node page format and the query engine with the
// bulkloaded Tree: call View to obtain a read-only *Tree over the built
// structure.
type DynTree struct {
	pool                     storage.Pool
	cfg                      Config
	root                     storage.PageID
	height                   int
	count                    int
	leafPages, internalPages int
}

// NewDynTree creates an empty dynamic tree on pool. The first insert
// allocates the root.
func NewDynTree(pool storage.Pool, cfg Config) *DynTree {
	return &DynTree{pool: pool, cfg: cfg.withDefaults(), root: storage.InvalidPage}
}

// View returns a read-only Tree over the current structure, sharing the
// same pool and pages. The view is invalidated by further inserts.
func (t *DynTree) View() (*Tree, error) {
	if t.root == storage.InvalidPage {
		return nil, ErrEmpty
	}
	return &Tree{
		pool:          t.pool,
		root:          t.root,
		height:        t.height,
		count:         t.count,
		leafPages:     t.leafPages,
		internalPages: t.internalPages,
	}, nil
}

// Insert adds one element to the tree, splitting nodes on overflow
// (Guttman's quadratic split) and growing the root as needed.
func (t *DynTree) Insert(el geom.Element) error {
	if t.root == storage.InvalidPage {
		id, err := t.writeNode(true, []NodeEntry{{Box: el.Box, Ref: el.ID}})
		if err != nil {
			return err
		}
		t.root = id
		t.height = 1
		t.count = 1
		return nil
	}

	split, err := t.insert(t.root, t.height, el)
	if err != nil {
		return err
	}
	if split != nil {
		// The root split: grow the tree by one level.
		oldRootBox, err := t.nodeBox(t.root)
		if err != nil {
			return err
		}
		id, err := t.writeNode(false, []NodeEntry{
			{Box: oldRootBox, Ref: uint64(t.root)},
			*split,
		})
		if err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	t.count++
	return nil
}

// insert descends into node id at the given level (1 = leaf) and returns
// a new sibling entry if the node split.
func (t *DynTree) insert(id storage.PageID, level int, el geom.Element) (*NodeEntry, error) {
	isLeaf, entries, err := readNode(t.pool, id, nil, nil)
	if err != nil {
		return nil, err
	}
	if level == 1 {
		if !isLeaf {
			return nil, fmt.Errorf("rtree: expected leaf at level 1, page %d", id)
		}
		entries = append(entries, NodeEntry{Box: el.Box, Ref: el.ID})
		return t.store(id, true, entries)
	}

	// ChooseSubtree: least volume enlargement, ties by least volume.
	best, bestEnl, bestVol := -1, 0.0, 0.0
	for i, e := range entries {
		enl := e.Box.Enlargement(el.Box)
		vol := e.Box.Volume()
		if best == -1 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	child := storage.PageID(entries[best].Ref)
	split, err := t.insert(child, level-1, el)
	if err != nil {
		return nil, err
	}
	childBox, err := t.nodeBox(child)
	if err != nil {
		return nil, err
	}
	entries[best].Box = childBox
	if split != nil {
		entries = append(entries, *split)
	}
	return t.store(id, false, entries)
}

// store writes entries back to page id, splitting if they overflow.
func (t *DynTree) store(id storage.PageID, isLeaf bool, entries []NodeEntry) (*NodeEntry, error) {
	capacity := t.cfg.LeafCapacity
	if !isLeaf {
		capacity = t.cfg.InternalCapacity
	}
	if len(entries) <= capacity {
		buf := make([]byte, storage.PageSize)
		encodeNode(buf, isLeaf, entries)
		return nil, t.pool.Write(id, buf)
	}

	left, right := quadraticSplit(entries, capacity)
	buf := make([]byte, storage.PageSize)
	encodeNode(buf, isLeaf, left)
	if err := t.pool.Write(id, buf); err != nil {
		return nil, err
	}
	sibID, err := t.writeNode(isLeaf, right)
	if err != nil {
		return nil, err
	}
	return &NodeEntry{Box: nodeMBR(right), Ref: uint64(sibID)}, nil
}

// writeNode allocates and writes a fresh node.
func (t *DynTree) writeNode(isLeaf bool, entries []NodeEntry) (storage.PageID, error) {
	cat := t.cfg.InternalCat
	if isLeaf {
		cat = t.cfg.LeafCat
		t.leafPages++
	} else {
		t.internalPages++
	}
	id, err := t.pool.Alloc(cat)
	if err != nil {
		return storage.InvalidPage, err
	}
	buf := make([]byte, storage.PageSize)
	encodeNode(buf, isLeaf, entries)
	return id, t.pool.Write(id, buf)
}

// nodeBox returns the MBR of a node's entries.
func (t *DynTree) nodeBox(id storage.PageID) (geom.MBR, error) {
	_, entries, err := readNode(t.pool, id, nil, nil)
	return nodeMBR(entries), err
}

// quadraticSplit distributes entries into two groups using Guttman's
// quadratic heuristics: pick the pair of seeds wasting the most volume
// if grouped together, then repeatedly assign the entry with the
// greatest preference for one group. Both groups are guaranteed at
// least minFill = capacity*2/5 entries (the classic 40% minimum).
func quadraticSplit(entries []NodeEntry, capacity int) (left, right []NodeEntry) {
	minFill := capacity * 2 / 5
	if minFill < 1 {
		minFill = 1
	}

	// PickSeeds.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Box.Union(entries[j].Box).Volume() -
				entries[i].Box.Volume() - entries[j].Box.Volume()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left = append(left, entries[s1])
	right = append(right, entries[s2])
	lBox, rBox := entries[s1].Box, entries[s2].Box

	rest := make([]NodeEntry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// If one group must take everything to reach min fill, do so.
		if len(left)+len(rest) == minFill {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) == minFill {
			right = append(right, rest...)
			break
		}
		// PickNext: the entry with the largest |d1 - d2|.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := lBox.Enlargement(e.Box)
			d2 := rBox.Enlargement(e.Box)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := lBox.Enlargement(e.Box)
		d2 := rBox.Enlargement(e.Box)
		toLeft := d1 < d2
		if d1 == d2 {
			toLeft = lBox.Volume() < rBox.Volume()
			if lBox.Volume() == rBox.Volume() {
				toLeft = len(left) <= len(right)
			}
		}
		if toLeft {
			left = append(left, e)
			lBox = lBox.Union(e.Box)
		} else {
			right = append(right, e)
			rBox = rBox.Union(e.Box)
		}
	}
	return left, right
}
