// Large-spatial-subvolume example: the paper's second use case
// (Section III-B). For visualization and tissue-density analysis,
// neuroscientists extract large subvolumes of the model with range
// queries and aggregate over the result.
//
// This example builds a FLAT index over a microcircuit, cuts the tissue
// into a 3x3x3 grid of subvolumes, retrieves each with one range query,
// and prints a per-subvolume density report along with the I/O cost.
//
// Run with:
//
//	go run ./examples/visualization
package main

import (
	"fmt"
	"log"

	"flat"
	"flat/internal/neuro"
)

func main() {
	fmt.Println("generating microcircuit...")
	// The paper's 285 µm cube shrunk 10x per axis so that density
	// (elements per µm³) matches the paper's models at this element count.
	side := 28.5
	model := neuro.Generate(neuro.Config{
		Seed:           11,
		TargetElements: 80000,
		Volume:         flat.Box(flat.V(0, 0, 0), flat.V(side, side, side)),
	})
	fmt.Printf("  %d segments in %v\n", len(model.Elements), model.Volume)

	ix, err := flat.Build(append([]flat.Element(nil), model.Elements...), &flat.Options{World: model.Volume})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	fmt.Println(ix)

	// Cut the tissue into 27 subvolumes and measure element density in
	// each — the tissue-density analysis the paper motivates.
	const grid = 3
	size := model.Volume.Size()
	cell := flat.V(size.X/grid, size.Y/grid, size.Z/grid)
	cellVolume := cell.X * cell.Y * cell.Z

	fmt.Printf("extracting %d subvolumes (%.0f µm³ each):\n", grid*grid*grid, cellVolume)
	var totalReads, totalResults uint64
	minD, maxD := -1.0, -1.0
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			for k := 0; k < grid; k++ {
				lo := model.Volume.Min.Add(flat.V(float64(i)*cell.X, float64(j)*cell.Y, float64(k)*cell.Z))
				q := flat.Box(lo, lo.Add(cell))
				n, stats, err := ix.CountQuery(q)
				if err != nil {
					log.Fatal(err)
				}
				d := float64(n) / cellVolume
				if minD < 0 || d < minD {
					minD = d
				}
				if d > maxD {
					maxD = d
				}
				totalReads += stats.TotalReads
				totalResults += uint64(n)
			}
		}
	}
	fmt.Printf("  element density across subvolumes: %.2f - %.2f per µm³\n", minD, maxD)
	fmt.Printf("  total: %d elements retrieved with %d page reads (%.3f reads/element)\n",
		totalResults, totalReads, float64(totalReads)/float64(totalResults))

	// The paper's key property: retrieval cost tracks the result size,
	// not the tree hierarchy — compare bytes retrieved vs result bytes.
	retrievedMB := float64(totalReads) * flat.PageSize / (1 << 20)
	resultMB := float64(totalResults) * 56 / (1 << 20) // 48-byte MBR + 8-byte id
	fmt.Printf("  data retrieved %.2f MB for a %.2f MB result (ratio %.2f)\n",
		retrievedMB, resultMB, retrievedMB/resultMB)
}
