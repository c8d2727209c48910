// N-body example: the paper's Section VIII shows FLAT also accelerates
// range queries on other scientific data sets, using the Nuage
// cosmological n-body snapshots. This example generates a clustered
// (Plummer-sphere) particle data set — the stand-in for a dark-matter
// snapshot — finds the densest halo with coarse probing queries, then
// zooms into it with progressively smaller range queries, comparing
// FLAT against a PR-tree at each step.
//
// Run with:
//
//	go run ./examples/nbody
package main

import (
	"fmt"
	"log"

	"flat"
	"flat/internal/datagen"
)

func main() {
	world := flat.Box(flat.V(0, 0, 0), flat.V(1000, 1000, 1000))
	fmt.Println("generating clustered n-body snapshot (Plummer halos)...")
	els := datagen.Plummer(datagen.PlummerSpec{
		N: 120000, World: world, Clusters: 10, Seed: 3,
	})
	fmt.Printf("  %d particles\n", len(els))

	ix, err := flat.Build(append([]flat.Element(nil), els...), &flat.Options{World: world})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	pr, err := flat.BuildRTree(append([]flat.Element(nil), els...), flat.RTreePR, &flat.Options{World: world})
	if err != nil {
		log.Fatal(err)
	}
	defer pr.Close()
	fmt.Println(ix)

	// Probe a coarse grid to locate the densest halo.
	fmt.Println("probing for the densest halo...")
	const grid = 5
	step := 1000.0 / grid
	var bestCenter flat.Vec3
	best := -1
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			for k := 0; k < grid; k++ {
				c := flat.V((float64(i)+0.5)*step, (float64(j)+0.5)*step, (float64(k)+0.5)*step)
				n, _, err := ix.CountQuery(flat.CubeAt(c, step))
				if err != nil {
					log.Fatal(err)
				}
				if n > best {
					best, bestCenter = n, c
				}
			}
		}
	}
	fmt.Printf("  densest cell at %v with %d particles\n", bestCenter, best)

	// Zoom in with shrinking queries, FLAT vs PR-tree.
	fmt.Println("zooming in (side: particles, FLAT reads vs PR-Tree reads):")
	for side := step; side >= step/64; side /= 2 {
		q := flat.CubeAt(bestCenter, side)
		n, fs, err := ix.CountQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		_, ps, err := pr.RangeQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  side %7.2f: %6d particles, %4d vs %4d reads\n",
			side, n, fs.TotalReads, ps.TotalReads)
	}
}
