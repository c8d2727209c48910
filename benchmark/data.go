package main

import (
	"math"
	"math/rand"

	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/neuro"
)

// Fixed shape of the benchmark's inputs. Everything below is derived
// from the seed alone, so one seed is one reproducible run.
const (
	// fullElements and fullSide are the paper's top density at the
	// repo's 1/1000 scale: 450k segments in a 28.5 µm cube. The smoke
	// test's smaller model shrinks the cube so the density — and with it
	// the per-query result counts the workloads are named after — holds.
	fullElements = 450000
	fullSide     = 28.5

	snFraction  = 5e-6 // structural-neighbourhood boxes, ≈13 results
	lssFraction = 5e-3 // large spatial-subvolume boxes, ≈2 840 results
	snQueries   = 4096
	lssQueries  = 1024
	nnPoints    = 1024
	nnK         = 10

	// mixed_rw stages 5 % of the base as inserts and 1 % as deletes
	// before timing, then writes at a fixed rate: four single-element
	// inserts to one delete of an earlier timed insert.
	stageInsertShare = 20  // base / 20 inserts
	stageDeleteShare = 100 // base / 100 deletes
	writesPerSecond  = 200
	deleteEvery      = 5
)

type opKind uint8

const (
	opRange opKind = iota
	opCount
	opNN
	opInsert
	opDelete
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"range", "count", "nn", "insert", "delete"}[k]
}

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// dataset is every input of a run.
type dataset struct {
	world  geom.MBR
	base   []geom.Element // ids 0..n-1, in generation order
	sn     []geom.MBR
	lss    []geom.MBR
	points []geom.Vec3

	// mixed_rw only.
	stagedIns []geom.Element // ids n.., staged before timing
	stagedDel []geom.Element // base elements deleted before timing
	writes    []writeOp      // the timed-phase write schedule, in order
}

// writeOp is one scheduled write: a single-element insert, or the
// delete of an element an earlier writeOp inserted.
type writeOp struct {
	kind opKind
	el   geom.Element
}

func worldFor(n int) geom.MBR {
	side := fullSide * math.Cbrt(float64(n)/fullElements)
	return geom.Box(geom.V(0, 0, 0), geom.V(side, side, side))
}

// generate builds the inputs for seed. maxWrites bounds the write
// schedule (0 when the workload does not write).
func generate(seed int64, n, maxWrites int) *dataset {
	world := worldFor(n)
	m := neuro.Generate(neuro.Config{Seed: seed, Volume: world, TargetElements: n, SegmentsPerNeuron: 1500})
	d := &dataset{
		world:  world,
		base:   m.Elements,
		sn:     datagen.Queries(datagen.QuerySpec{Count: snQueries, World: world, VolumeFraction: snFraction, Seed: seed + 1}),
		lss:    datagen.Queries(datagen.QuerySpec{Count: lssQueries, World: world, VolumeFraction: lssFraction, Seed: seed + 2}),
		points: datagen.Points(nnPoints, world, seed+3),
	}
	if maxWrites == 0 {
		return d
	}

	r := rand.New(rand.NewSource(seed + 4))
	nextID := uint64(n)
	// A new element borrows the extent of a random base segment and
	// lands uniformly in the world, so staged data looks like the model.
	fresh := func() geom.Element {
		size := d.base[r.Intn(n)].Box.Size()
		span := world.Size().Sub(size)
		lo := geom.V(r.Float64()*span.X, r.Float64()*span.Y, r.Float64()*span.Z)
		e := geom.Element{ID: nextID, Box: geom.MBR{Min: lo, Max: lo.Add(size)}}
		nextID++
		return e
	}
	d.stagedIns = make([]geom.Element, n/stageInsertShare)
	for i := range d.stagedIns {
		d.stagedIns[i] = fresh()
	}
	// Deletes take every stride-th base element from a random offset:
	// distinct by construction.
	nDel := n / stageDeleteShare
	off := r.Intn(n)
	d.stagedDel = make([]geom.Element, nDel)
	for i := range d.stagedDel {
		d.stagedDel[i] = d.base[(off+i*(n/nDel))%n]
	}
	d.writes = make([]writeOp, maxWrites)
	oldest := 0 // index into writes of the oldest timed insert not yet deleted
	for i := range d.writes {
		if i%deleteEvery == deleteEvery-1 {
			for d.writes[oldest].kind != opInsert {
				oldest++
			}
			d.writes[i] = writeOp{kind: opDelete, el: d.writes[oldest].el}
			oldest++
			continue
		}
		d.writes[i] = writeOp{kind: opInsert, el: fresh()}
	}
	return d
}
