package rtree

import (
	"flat/internal/geom"
	"flat/internal/hilbert"
	"flat/internal/str"
)

// packSTR groups elements into leaf pages with one sort-tile-recursive
// pass (Leutenegger et al.).
func packSTR(els []geom.Element, capacity int) [][]geom.Element {
	return str.Tile(els, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, capacity)
}

// packEntriesSTR groups node entries for the next tree level with STR,
// tiling on the entry MBR centers.
func packEntriesSTR(entries []NodeEntry, capacity int) [][]NodeEntry {
	return str.Tile(entries, func(e NodeEntry) geom.Vec3 { return e.Box.Center() }, capacity)
}

// packHilbert sorts elements by the Hilbert value of their MBR center
// (Kamel & Faloutsos) and packs consecutive runs of capacity elements.
func packHilbert(els []geom.Element, world geom.MBR, capacity int) [][]geom.Element {
	hilbert.SortElements(els, world)
	return consecutive(els, capacity)
}

// consecutive splits a slice into runs of at most capacity items,
// preserving order.
func consecutive[T any](items []T, capacity int) [][]T {
	var out [][]T
	for len(items) > capacity {
		out = append(out, items[:capacity])
		items = items[capacity:]
	}
	if len(items) > 0 {
		out = append(out, items)
	}
	return out
}
