package bench

import (
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// The ablation experiments quantify design decisions the paper asserts
// but does not measure:
//
//   - ablation1: bulkloaded vs insertion-built R-trees. Section VII
//     states bulkloaded trees outperform R*-style insertion trees
//     "primarily due to better page utilization"; we build a Guttman
//     quadratic-split tree over the same data and compare build time,
//     page count and SN-benchmark page reads against the STR tree.
//   - ablation2: metadata record layout. The paper stores metadata
//     records in seed-tree (R-tree) leaves so that spatially close
//     records share a page; we compare FLAT with 3D-tiled metadata pages
//     against linear partition-order packing. Its neighbor pointers are
//     bare (Section V-B.2); ours carry a coarse box of the neighbor's
//     partition that lets the crawl skip a neighbor missing the query,
//     so the table also runs the same pages with the crawl ignoring the
//     boxes: the paper's pointer beside the extension.

func (r *Runner) ablation() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	m := r.model(n)
	queries := datagen.Queries(datagen.QuerySpec{
		Count:          r.Cfg.Queries,
		World:          m.Volume,
		VolumeFraction: r.Cfg.SNFraction,
		Seed:           r.Cfg.Seed + 100,
	})
	capacity := r.Cfg.NodeCapacity

	// --- Ablation 1: dynamic insertion vs STR bulkload. ---
	t1 := &Table{
		ID:    "ablation",
		Title: "Ablation: insertion-built (Guttman) vs bulkloaded (STR) R-tree",
		Columns: []string{"variant", "build ms", "leaf pages", "total pages",
			"SN page reads", "SN reads/query"},
		Timed: []string{"build ms"},
		Note:  "paper (Sec. VII): bulkloaded trees win primarily via page utilization",
	}
	addTreeRow := func(name string, tree *rtree.Tree, build time.Duration) error {
		meas, err := coldTree(tree, queries)
		if err != nil {
			return err
		}
		leaf, internal := tree.PageCounts()
		t1.AddRow(name, ms(build), fi(leaf), fi(leaf+internal),
			fu(meas.Stats.TotalReads()),
			f1(float64(meas.Stats.TotalReads())/float64(len(queries))))
		return nil
	}

	cp := make([]geom.Element, len(m.Elements))
	copy(cp, m.Elements)
	t0 := time.Now()
	strTree, err := rtree.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, rtree.STR, m.Volume, rtree.Config{
		LeafCapacity: capacity, InternalCapacity: capacity,
	})
	if err != nil {
		return nil, err
	}
	strBuild := time.Since(t0)
	if err := addTreeRow("STR bulkload", strTree, strBuild); err != nil {
		return nil, err
	}

	dyn := rtree.NewDynTree(storage.NewConcurrentPool(storage.NewMemPager(), 0), rtree.Config{
		LeafCapacity: capacity, InternalCapacity: capacity,
	})
	t0 = time.Now()
	for _, e := range m.Elements {
		if err := dyn.Insert(e); err != nil {
			return nil, err
		}
	}
	dynBuild := time.Since(t0)
	dynView, err := dyn.View()
	if err != nil {
		return nil, err
	}
	if err := addTreeRow("Guttman insert", dynView, dynBuild); err != nil {
		return nil, err
	}

	// --- Ablation 2: metadata tiling on/off, boxed vs bare pointers. ---
	t2 := &Table{
		ID:    "ablation",
		Title: "Ablation: FLAT metadata layout (3D-tiled vs linear packing, boxed vs bare neighbor pointers)",
		Columns: []string{"variant", "metadata pages",
			"SN metadata reads", "SN total reads"},
		Note: "tiling reproduces the paper's records-in-R-tree-leaves locality; bare pointers are the paper's (Sec. V-B.2), boxed ones an extension that skips neighbors missing the query",
	}
	for _, variant := range []struct {
		name         string
		noTile, bare bool
	}{
		{"3D-tiled, boxed pointers", false, false},
		{"3D-tiled, bare pointers (paper)", false, true},
		{"linear packing, boxed pointers", true, false},
	} {
		cp := make([]geom.Element, len(m.Elements))
		copy(cp, m.Elements)
		ix, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, core.Options{
			World: m.Volume, PageCapacity: capacity,
			SeedFanout: capacity, NoMetaTiling: variant.noTile, BarePointers: variant.bare,
		})
		if err != nil {
			return nil, err
		}
		meas, err := coldFLAT(ix, queries)
		if err != nil {
			return nil, err
		}
		_, metaPages, _ := ix.PageCounts()
		t2.AddRow(variant.name, fi(metaPages),
			fu(meas.Stats.Reads[storage.CatMetadata]),
			fu(meas.Stats.TotalReads()))
	}
	return []*Table{t1, t2}, nil
}
