package bench

import (
	"fmt"
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// Section VIII: FLAT on other data sets. The paper indexes three Nuage
// n-body snapshots, a brain surface mesh and the Lucy statue scan, and
// compares FLAT against the PR-tree only. Our stand-ins are generated at
// OtherScale times the paper's element counts (see Config.OtherScale).

type otherDataset struct {
	Name       string
	PaperCount int // paper's element count
	Generate   func(n int, seed int64) ([]geom.Element, geom.MBR)
}

func nbodyWorld() geom.MBR { return geom.Box(geom.V(0, 0, 0), geom.V(1000, 1000, 1000)) }
func meshWorld() geom.MBR  { return geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)) }

var otherDatasets = []otherDataset{
	{
		Name: "Nuage (dark matter)", PaperCount: 16800000,
		Generate: func(n int, seed int64) ([]geom.Element, geom.MBR) {
			w := nbodyWorld()
			return datagen.Plummer(datagen.PlummerSpec{N: n, World: w, Clusters: 10, Seed: seed}), w
		},
	},
	{
		Name: "Nuage (stars)", PaperCount: 16800000,
		Generate: func(n int, seed int64) ([]geom.Element, geom.MBR) {
			// Stars: strongly clustered into many small halos.
			w := nbodyWorld()
			return datagen.Plummer(datagen.PlummerSpec{N: n, World: w, Clusters: 40, Seed: seed + 1}), w
		},
	},
	{
		Name: "Nuage (gas)", PaperCount: 12400000,
		Generate: func(n int, seed int64) ([]geom.Element, geom.MBR) {
			// Gas: smoother; fewer, broader halos.
			w := nbodyWorld()
			return datagen.Plummer(datagen.PlummerSpec{N: n, World: w, Clusters: 4, Seed: seed + 2}), w
		},
	},
	{
		Name: "Brain Mesh", PaperCount: 173000000,
		Generate: func(n int, seed int64) ([]geom.Element, geom.MBR) {
			w := meshWorld()
			return datagen.SurfaceMesh(datagen.MeshSpec{N: n, World: w, Bumps: 8, Seed: seed + 3}), w
		},
	},
	{
		Name: "Lucy Statue", PaperCount: 252000000,
		Generate: func(n int, seed int64) ([]geom.Element, geom.MBR) {
			w := meshWorld()
			return datagen.SurfaceMesh(datagen.MeshSpec{N: n, World: w, Bumps: 12, Seed: seed + 4}), w
		},
	},
}

// otherSet is a built FLAT + PR-tree pair over one Section VIII data set.
type otherSet struct {
	name      string
	n         int
	world     geom.MBR
	flat      *core.Index
	pr        *rtree.Tree
	flatBuild time.Duration
	prBuild   time.Duration
}

// otherSets builds (and caches) all Section VIII index pairs.
func (r *Runner) otherSets() ([]*otherSet, error) {
	if r.others != nil {
		return r.others, nil
	}
	var sets []*otherSet
	for _, d := range otherDatasets {
		n := int(float64(d.PaperCount) * r.Cfg.OtherScale)
		els, world := d.Generate(n, r.Cfg.Seed)
		r.logf("building FLAT + PR-Tree over %s (%d elements)", d.Name, len(els))
		s := &otherSet{name: d.Name, n: len(els), world: world}

		cp := make([]geom.Element, len(els))
		copy(cp, els)
		t0 := time.Now()
		ix, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, core.Options{World: world, PageCapacity: r.Cfg.NodeCapacity, SeedFanout: r.Cfg.NodeCapacity})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		s.flatBuild = time.Since(t0)
		s.flat = ix

		t0 = time.Now()
		tree, err := rtree.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), els, rtree.PR, world, rtree.Config{
			LeafCapacity:     r.Cfg.NodeCapacity,
			InternalCapacity: r.Cfg.NodeCapacity,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		s.prBuild = time.Since(t0)
		s.pr = tree
		sets = append(sets, s)
	}
	r.others = sets
	return sets, nil
}

// fig22 reproduces Figure 22: index size and building time for each of
// the other data sets, FLAT vs PR-tree.
func (r *Runner) fig22() ([]*Table, error) {
	sets, err := r.otherSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig22",
		Title: "Other data sets: index size and building time (FLAT vs PR-Tree)",
		Columns: []string{"dataset", "elements",
			"FLAT size MB", "PR size MB", "FLAT build ms", "PR build ms"},
		Timed: []string{"FLAT build ms", "PR build ms"},
		Note: "paper: FLAT modestly larger, builds far faster than the PR-tree; " +
			"here: builds 4-6x faster (wall-clock, not gated), but FLAT is 1-4% smaller, not larger",
	}
	const mb = float64(1 << 20)
	for _, s := range sets {
		t.AddRow(s.name, fi(s.n),
			f2(float64(s.flat.SizeBytes())/mb),
			f2(float64(s.pr.SizeBytes())/mb),
			ms(s.flatBuild), ms(s.prBuild),
		)
	}
	return []*Table{t}, nil
}

// fig23 reproduces Figure 23: execution time and speedup of small- and
// large-volume query sets on the other data sets, FLAT vs PR-tree.
func (r *Runner) fig23() ([]*Table, error) {
	sets, err := r.otherSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig23",
		Title: "Other data sets: query execution, FLAT vs PR-Tree",
		Columns: []string{"dataset", "workload",
			"FLAT ms", "PR ms", "time speedup %",
			"FLAT reads", "PR reads", "read speedup %"},
		Timed: []string{"FLAT ms", "PR ms", "time speedup %"},
		Note: "paper: 21-58% speedup on small queries, 6-44% on large; " +
			"here: not reproduced — FLAT reads fewer pages than the PR-tree on 8 of the 10 rows " +
			"(read speedup -2% .. +42%); the time columns are CPU time over in-memory pages, wall-clock and not gated",
	}
	workloads := []struct {
		name     string
		fraction float64
	}{
		{"small", r.Cfg.SNFraction},
		{"large", r.Cfg.LSSFraction},
	}
	for _, s := range sets {
		for _, wl := range workloads {
			queries := datagen.Queries(datagen.QuerySpec{
				Count: r.Cfg.Queries, World: s.world,
				VolumeFraction: wl.fraction, Seed: r.Cfg.Seed + 400,
			})
			fm, err := coldFLAT(s.flat, queries)
			if err != nil {
				return nil, err
			}
			pm, err := coldTree(s.pr, queries)
			if err != nil {
				return nil, err
			}
			t.AddRow(s.name, wl.name,
				ms(fm.Elapsed), ms(pm.Elapsed), f1(speedup(float64(fm.Elapsed), float64(pm.Elapsed))),
				fu(fm.Stats.TotalReads()), fu(pm.Stats.TotalReads()),
				f1(speedup(float64(fm.Stats.TotalReads()), float64(pm.Stats.TotalReads()))),
			)
		}
	}
	return []*Table{t}, nil
}

// speedup returns how much cheaper flat is than pr, in percent of pr.
func speedup(flat, pr float64) float64 {
	if pr == 0 {
		return 0
	}
	return (pr - flat) / pr * 100
}
