package bench

import (
	"fmt"
	"math"
	"sort"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/storage"
	"flat/internal/str"
)

// fig20 reproduces Figure 20: the distribution of the number of neighbor
// pointers per partition for data sets of increasing density. The
// paper's finding: the mode stays put (~30) as density grows, so
// metadata grows only linearly.
func (r *Runner) fig20() ([]*Table, error) {
	const bucket = 5
	hists := make([]map[int]int, 0, len(r.Cfg.Densities))
	maxPtr := 0
	for _, n := range r.Cfg.Densities {
		s, err := r.set(n)
		if err != nil {
			return nil, err
		}
		h, err := s.flat.NeighborHistogram()
		if err != nil {
			return nil, err
		}
		hists = append(hists, h)
		for k := range h {
			if k > maxPtr {
				maxPtr = k
			}
		}
	}
	t := &Table{
		ID:      "fig20",
		Title:   "Distribution of neighbor pointers per partition",
		Columns: []string{"pointers"},
		Note:    "paper: distribution sharpens with density but the mode stays constant; here: not reproduced — the mode moves from 15-19 to 20-24 and the median from 15 to 23 over 50k-450k",
	}
	for _, n := range r.Cfg.Densities {
		t.Columns = append(t.Columns, fmt.Sprintf("%d els", n))
	}
	for lo := 0; lo <= maxPtr; lo += bucket {
		row := []string{fmt.Sprintf("%d-%d", lo, lo+bucket-1)}
		any := false
		for _, h := range hists {
			c := 0
			for k := lo; k < lo+bucket; k++ {
				c += h[k]
			}
			if c > 0 {
				any = true
			}
			row = append(row, fi(c))
		}
		if any {
			t.AddRow(row...)
		}
	}
	// Medians, the paper's headline statistic for this figure.
	medRow := []string{"median"}
	for _, h := range hists {
		medRow = append(medRow, fi(histMedian(h)))
	}
	t.AddRow(medRow...)
	return []*Table{t}, nil
}

func histMedian(h map[int]int) int {
	keys := make([]int, 0, len(h))
	total := 0
	for k, c := range h {
		keys = append(keys, k)
		total += c
	}
	sort.Ints(keys)
	seen := 0
	for _, k := range keys {
		seen += h[k]
		if seen*2 >= total {
			return k
		}
	}
	return 0
}

// analysisWorld is the Section VII-E volume: the paper's 8 mm³
// (a 2000 µm cube) shrunk with the cube root of the element-count scale
// so that the partition-cell size relative to the element size matches
// the paper's experiment geometry.
func analysisWorld(n int) geom.MBR {
	side := 2000 * math.Cbrt(float64(n)/10e6)
	return geom.Box(geom.V(0, 0, 0), geom.V(side, side, side))
}

// analysisN scales the paper's 10 M uniformly distributed elements by
// OtherScale (default 1/200 -> 50k).
func (r *Runner) analysisN() int {
	n := int(10e6 * r.Cfg.OtherScale)
	if n < 10000 {
		n = 10000
	}
	return n
}

func buildFLATOver(els []geom.Element, world geom.MBR, capacity int) (*core.Index, error) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	return core.Build(pool, els, core.Options{World: world, PageCapacity: capacity})
}

// fig21 reproduces Figure 21 and the two accompanying text experiments
// of Section VII-E.1:
//
//  1. larger partitions (fewer, bigger pages) => more neighbor pointers;
//  2. growing the element volume 5x increases pointers by ~10%;
//  3. stretching element aspect ratios (5..35 µm sides at constant
//     volume) grows the average pointer count roughly linearly.
func (r *Runner) fig21() ([]*Table, error) {
	n := r.analysisN()
	world := analysisWorld(n)

	// (1) Partition-size sweep: the paper incrementally increases the
	// partition volumes and measures the neighbor pointers that result
	// from the added overlap. We reproduce it by inflating every
	// partition MBR around its center and recomputing the neighbor
	// relation, exactly as Algorithm 1 would.
	t1 := &Table{
		ID:      "fig21",
		Title:   fmt.Sprintf("Partition volume vs neighbor pointers (uniform, n=%d)", n),
		Columns: []string{"inflation", "partitions", "avg partition volume [µm³]", "avg neighbor pointers"},
		Note:    "paper: pointers grow with partition volume; here: holds (13.6 -> 21.1 at 1.6x inflation)",
	}
	{
		els := datagen.UniformBoxes(datagen.UniformSpec{
			N: n, World: world, ElementVolume: 18, Seed: r.Cfg.Seed + 300,
		})
		parts := str.PartitionElements(els, r.Cfg.NodeCapacity, world)
		for _, factor := range []float64{1.0, 1.15, 1.3, 1.45, 1.6} {
			avgVol, avgNb := inflatedNeighborStats(parts, factor)
			t1.AddRow(f2(factor), fi(len(parts)), f1(avgVol), f2(avgNb))
		}
	}

	// (2) Element-volume sweep (5x growth).
	t2 := &Table{
		ID:      "fig21",
		Title:   "Element volume vs neighbor pointers (text experiment 1)",
		Columns: []string{"element volume [µm³]", "avg neighbor pointers", "vs base %"},
		Note:    "paper: 5x element volume => ~10% more pointers; here: holds (+8.7%)",
	}
	base := 0.0
	for _, vol := range []float64{18, 36, 54, 72, 90} {
		els := datagen.UniformBoxes(datagen.UniformSpec{
			N: n, World: world, ElementVolume: vol, Seed: r.Cfg.Seed + 301,
		})
		ix, err := buildFLATOver(els, world, r.Cfg.NodeCapacity)
		if err != nil {
			return nil, err
		}
		avg, err := ix.AvgNeighbors()
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = avg
		}
		t2.AddRow(f1(vol), f2(avg), f1((avg/base-1)*100))
	}

	// (3) Aspect-ratio sweep at constant volume.
	t3 := &Table{
		ID:      "fig21",
		Title:   "Element aspect ratio vs neighbor pointers (text experiment 2)",
		Columns: []string{"side range [µm]", "avg neighbor pointers"},
		Note:    "paper: average grows ~linearly, 17.4 -> 22.9 across the range; here: not reproduced — flat at 13.5-13.8",
	}
	for _, hi := range []float64{5, 12.5, 20, 27.5, 35} {
		els := datagen.UniformBoxes(datagen.UniformSpec{
			N: n, World: world, ElementVolume: 18,
			AspectMin: 5, AspectMax: hi, Seed: r.Cfg.Seed + 302,
		})
		ix, err := buildFLATOver(els, world, r.Cfg.NodeCapacity)
		if err != nil {
			return nil, err
		}
		avg, err := ix.AvgNeighbors()
		if err != nil {
			return nil, err
		}
		t3.AddRow(fmt.Sprintf("5-%g", hi), f2(avg))
	}
	return []*Table{t1, t2, t3}, nil
}

// inflatedNeighborStats scales every partition MBR by factor around its
// center and recomputes the neighbor relation with the engine's own
// (core.Neighbors: each inflated MBR queried against the cells). It
// returns the average inflated partition volume and the average
// neighbor count.
func inflatedNeighborStats(parts []str.Partition, factor float64) (avgVol, avgNb float64) {
	cells := make([]geom.MBR, len(parts))
	inflated := make([]geom.MBR, len(parts))
	for i, p := range parts {
		c := p.PartitionMBR.Center()
		h := p.PartitionMBR.Size().Scale(factor / 2)
		cells[i], inflated[i] = p.Cell, geom.MBR{Min: c.Sub(h), Max: c.Add(h)}
		avgVol += inflated[i].Volume()
	}
	avgVol /= float64(len(parts))
	_, links := core.Neighbors(cells, inflated)
	return avgVol, float64(links) / float64(len(parts))
}
