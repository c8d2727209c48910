package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flat/internal/geom"
	"flat/internal/str"
)

// partitionBoxes partitions els as Build does and returns the cells and
// the stretched partition MBRs.
func partitionBoxes(els []geom.Element, capacity int, world geom.MBR) (cells, boxes []geom.MBR) {
	for _, p := range str.PartitionElements(els, capacity, world) {
		cells, boxes = append(cells, p.Cell), append(boxes, p.PartitionMBR)
	}
	return cells, boxes
}

// TestNeighborsMatchBruteForce: the neighbor join equals the nested loop
// over every pair — i and k are neighbors when boxes[i] meets cells[k] or
// boxes[k] meets cells[i] — with each list ascending, free of self and
// duplicates, and the links their total. The inputs cover uniform and
// clustered data, elongated elements that stretch one partition across
// many cells, boxes inflated past their cells (fig21's sweep), and one
// partition alone.
func TestNeighborsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	world := worldBox()
	elongated := randomElements(r, 1500, world)
	for i := 0; i < len(elongated); i += 40 {
		c := elongated[i].Box.Center()
		elongated[i].Box = geom.Box(geom.V(0, c.Y, c.Z), geom.V(100, c.Y+0.5, c.Z+0.5))
	}
	inflate := func(boxes []geom.MBR) []geom.MBR {
		out := make([]geom.MBR, len(boxes))
		for i, b := range boxes {
			h := b.Size().Scale(0.8)
			out[i] = geom.MBR{Min: b.Center().Sub(h), Max: b.Center().Add(h)}
		}
		return out
	}
	type input struct {
		name         string
		cells, boxes []geom.MBR
	}
	var inputs []input
	for _, c := range []struct {
		name string
		els  []geom.Element
	}{
		{"uniform", randomElements(r, 3000, world)},
		{"clustered", clusteredElements(r, 400, []geom.Vec3{geom.V(20, 20, 20), geom.V(70, 40, 60), geom.V(50, 90, 10)}, 4)},
		{"elongated", elongated},
		{"one partition", randomElements(r, 10, world)},
	} {
		cells, boxes := partitionBoxes(c.els, 24, world)
		inputs = append(inputs, input{c.name, cells, boxes}, input{c.name + ", inflated", cells, inflate(boxes)})
	}
	for _, in := range inputs {
		got, links := Neighbors(in.cells, in.boxes)
		want := make([][]int, len(in.cells))
		wantLinks := 0
		for i := range in.cells {
			for k := range in.cells {
				if k != i && (in.boxes[i].Intersects(in.cells[k]) || in.boxes[k].Intersects(in.cells[i])) {
					want[i] = append(want[i], k)
				}
			}
			wantLinks += len(want[i])
		}
		if links != wantLinks || len(got) != len(want) {
			t.Fatalf("%s: %d links over %d partitions, want %d over %d", in.name, links, len(got), wantLinks, len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: partition %d neighbors %v, want %v", in.name, i, got[i], want[i])
			}
		}
	}
}

// neighborsSink keeps BenchmarkNeighbors' call from being optimized away.
var neighborsSink [][]int

// BenchmarkNeighbors prices Build's neighbor phase alone (the paper's
// "Finding Neighbors" in Figure 10) at two partition counts.
func BenchmarkNeighbors(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cells, boxes := partitionBoxes(randomElements(rand.New(rand.NewSource(59)), n, worldBox()), 73, worldBox())
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				neighborsSink, _ = Neighbors(cells, boxes)
			}
			b.ReportMetric(float64(len(cells)), "partitions")
		})
	}
}
