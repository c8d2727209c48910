package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// The tests in this file pin "identical": the build, rebuild and replay
// paths may get faster, but the bytes they write and the answers they
// give may not move. Each was written against the implementation it
// guards before that implementation changed (sort.SliceStable in the
// build-time orders, a linear delete filter in Rebuild, one Guttman
// insert per replayed record) and passes on both.

// stableBuildDigests are the SHA-256 digests of every page file of
// TestBuildBytesStable's builds, computed with sort.SliceStable behind
// every build-time order. A digest that moves means a bulkload wrote
// different bytes — STR ties broken differently, a shard boundary
// shifted — which also moves every committed BENCH_*.json cell. The v2
// digests were re-recorded when v2 pages began storing ids as narrow
// offsets from a per-page base (their bytes and page counts moved; v1's
// did not), and every digest when metadata pages moved to kind 3
// (quantized headers, narrow refs and boxed neighbor pointers).
var stableBuildDigests = map[string]string{
	"K1-v1/shard-0000.flat": "446ac50eb43f7fd67bd15915f1b6366150b733aa91d5fd8197c29bf9f020ac04",
	"K1-v2/shard-0000.flat": "9c1e827a5a75059ea786a683e80019eac682e9d9d7750d163a962d8f2595ec34",
	"K4-v1/shard-0000.flat": "0157c728cdea0c1117e1aa8ac01fcd353cf61440f67039c792a67b0133099ced",
	"K4-v1/shard-0001.flat": "2aff2369b568efaa4df33c8d212ec2c6c66473803d4132e8dbfd41525faa63dd",
	"K4-v1/shard-0002.flat": "4ea6d6923016ffa245208284b9a7db803394a64866725f2ad0fcb825bd5feb95",
	"K4-v1/shard-0003.flat": "6892152fad4544f5d368429906b74e1e94949b741a9ed8457ad8726ab0a5fc86",
	"K4-v2/shard-0000.flat": "3802f987862c7db4bc0696ef245c84163b099e7147f655b40c8af286d47ba864",
	"K4-v2/shard-0001.flat": "4a34629d3a853831eaa26cdef083c812543134e03d8e3d17b908a005b04a5549",
	"K4-v2/shard-0002.flat": "8833b05da63e34c6e853e9d626aee2a0d7ab1768ca45c39532bbd586518f4312",
	"K4-v2/shard-0003.flat": "c52cffcd0f8aabe895f92b65673b5d2b8156fda4e317b69aa83a688e48ab99e6",
}

// stableBuildElements is a deterministic data set with what makes an
// unstable sort visible: a third of the elements sit on a coarse
// lattice, so many centers tie on one, two or all three coordinates
// (and share a Hilbert cell).
func stableBuildElements() []geom.Element {
	r := rand.New(rand.NewSource(19))
	els := make([]geom.Element, 12000)
	for i := range els {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		if i%3 == 0 {
			c = geom.V(float64(r.Intn(6))*20, float64(r.Intn(6))*20, float64(r.Intn(6))*20)
		}
		els[i] = geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 0.5+float64(i%4))}
	}
	return els
}

func TestBuildBytesStable(t *testing.T) {
	got := map[string]string{}
	for _, k := range []int{1, 4} {
		for _, pf := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
			name := fmt.Sprintf("K%d-v%d", k, pf)
			dir := filepath.Join(t.TempDir(), name)
			set, err := Build(stableBuildElements(), Config{Shards: k, PageFormat: pf, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Close(); err != nil {
				t.Fatal(err)
			}
			for file, data := range readShardFiles(t, dir) {
				sum := sha256.Sum256(data)
				got[name+"/"+file] = hex.EncodeToString(sum[:])
			}
		}
	}
	if !reflect.DeepEqual(got, stableBuildDigests) {
		for name, sum := range got {
			if stableBuildDigests[name] != sum {
				t.Errorf("%s: digest %s, want %q", name, sum, stableBuildDigests[name])
			}
		}
		for name := range stableBuildDigests {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: page file not written", name)
			}
		}
	}
}

// matchesDelete is the linear reference deleteView.matches is held to:
// whether e is doomed by any staged delete.
func matchesDelete(dels []pendingDelete, e geom.Element) bool {
	for _, d := range dels {
		if deleteMatches(d, e) {
			return true
		}
	}
	return false
}

// matchesDeleteAfter is the linear reference of deleteView.matchesAfter:
// whether a staged insert stamped seq is doomed by a delete staged
// later than it.
func matchesDeleteAfter(dels []pendingDelete, e geom.Element, seq uint64) bool {
	for _, d := range dels {
		if d.seq > seq && deleteMatches(d, e) {
			return true
		}
	}
	return false
}

// TestMergedElementsIndexedMatchesLinear holds the rebuild's delete
// filter to the linear scan it replaced: per shard, mergedElements
// equals "bulkloaded elements no delete matches, then staged inserts no
// later delete matches", element for element — with duplicate IDs,
// nested boxes, and a delete staged before and after a matching insert,
// under a handful of deletes and under dozens.
func TestMergedElementsIndexedMatchesLinear(t *testing.T) {
	for _, extra := range []int{0, 40} {
		r := rand.New(rand.NewSource(61))
		els := randomElements(r, 2000)
		// Duplicate IDs with nested boxes in the bulkloaded set: a delete
		// naming the inner box dooms both, one naming the outer only it.
		els[10] = geom.Element{ID: 5077, Box: geom.CubeAt(geom.V(50, 50, 50), 4)}
		els[11] = geom.Element{ID: 5077, Box: geom.CubeAt(geom.V(50, 50, 50), 2)}
		els[12] = geom.Element{ID: 5078, Box: geom.CubeAt(geom.V(20, 20, 20), 4)}
		els[13] = geom.Element{ID: 5078, Box: geom.CubeAt(geom.V(20, 20, 20), 2)}
		orig := append([]geom.Element(nil), els...)
		set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()

		stage := func(e geom.Element) {
			t.Helper()
			if err := set.StageInsert(e); err != nil {
				t.Fatal(err)
			}
		}
		unstage := func(e geom.Element) {
			t.Helper()
			if err := set.StageDelete(e.ID, e.Box); err != nil {
				t.Fatal(err)
			}
		}
		a := geom.Element{ID: 900001, Box: geom.CubeAt(geom.V(30, 60, 30), 1)}
		b := geom.Element{ID: 900002, Box: geom.CubeAt(geom.V(70, 30, 70), 1)}
		unstage(orig[11]) // inner box: dooms both ID-5077 elements
		unstage(orig[12]) // outer box: dooms only the outer ID-5078 element
		stage(a)
		unstage(a) // delete after insert: a is gone
		unstage(b)
		stage(b)       // insert after delete: b survives
		stage(b)       // a duplicate (ID, box) staged insert survives too
		stage(orig[5]) // a staged twin of a bulkloaded element ...
		unstage(orig[5])
		stage(orig[5]) // ... deleted with it, then restored once
		for i := 0; i < extra; i++ {
			unstage(orig[100+i*7])
		}

		set.pmu.Lock()
		dels := set.deleteViewLocked()
		for sh, ix := range set.cur.shards {
			all, _, err := ix.RangeQuery(ix.Bounds())
			if err != nil {
				t.Fatal(err)
			}
			var want []geom.Element
			for _, e := range all {
				if !matchesDelete(set.staged.deletes, e) {
					want = append(want, e)
				}
			}
			for _, si := range set.staged.deltas[sh].slab {
				if !matchesDeleteAfter(set.staged.deletes, si.el, si.seq) {
					want = append(want, si.el)
				}
			}
			got, err := set.mergedElements(sh, dels)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("extra=%d shard %d: indexed filter kept %d elements, linear %d", extra, sh, len(got), len(want))
			}
		}
		set.pmu.Unlock()

		// And the rebuilt set holds exactly the survivors.
		if _, err := set.Rebuild(); err != nil {
			t.Fatal(err)
		}
		got, _ := collectStream(t, set, context.Background(), geom.Box(geom.V(-10, -10, -10), geom.V(110, 110, 110)))
		count := map[uint64]int{}
		for _, e := range got {
			count[e.ID]++
		}
		for id, want := range map[uint64]int{5077: 0, 5078: 1, a.ID: 0, b.ID: 2, orig[5].ID: 1} {
			if count[id] != want {
				t.Errorf("extra=%d: id %d present %d times after Rebuild, want %d", extra, id, count[id], want)
			}
		}
		if want := 2000 - 3 + 2 - extra; len(got) != want {
			t.Errorf("extra=%d: %d elements after Rebuild, want %d", extra, len(got), want)
		}
	}
}

// answers is everything a client can observe of a set's staged state.
type answers struct {
	ranges           [][]geom.Element
	counts           []int
	nearest          [][]geom.Element
	inserts, deletes int
}

func observe(t *testing.T, set *Set, boxes []geom.MBR, points []geom.Vec3) answers {
	t.Helper()
	var a answers
	ctx := context.Background()
	for _, q := range boxes {
		els, _ := collectStream(t, set, ctx, q)
		n, _ := countStream(t, set, ctx, q)
		a.ranges, a.counts = append(a.ranges, els), append(a.counts, n)
	}
	for _, p := range points {
		var near []geom.Element
		_, err := set.NNQuery(ctx, p, 40, func(e geom.Element, _ float64) bool {
			near = append(near, e)
			return len(near) < 40
		})
		if err != nil {
			t.Fatal(err)
		}
		a.nearest = append(a.nearest, near)
	}
	d := set.DeltaStats()
	a.inserts, a.deletes = d.Inserts, d.Deletes
	return a
}

// TestDeltaPackedMatchesInserted: a delta staged as one batch (a
// replayed log, a bulk StageInsert: one run per shard) answers exactly
// like one grown by single stages (many runs, merged as they grow) — and
// keeps doing so when more single stages land on the packed run, and in
// the fresh epoch a Rebuild installs.
func TestDeltaPackedMatchesInserted(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	base := randomElements(r, 3000)
	boxes := append(testQueries(r, 30), geom.Box(geom.V(-10, -10, -10), geom.V(110, 110, 110)))
	points := make([]geom.Vec3, 12)
	for i := range points {
		points[i] = geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
	}
	build := func(name string) (*Set, string) {
		dir := filepath.Join(t.TempDir(), name)
		return buildWALSet(t, append([]geom.Element(nil), base...), dir), dir
	}
	// The log: enough inserts that every shard's packed run has an inner
	// level, interleaved with deletes of base elements, of staged
	// inserts, and re-inserts after a delete.
	type op struct {
		del bool
		el  geom.Element
	}
	var log []op
	fresh := randomElements(r, 1400)
	for i := range fresh {
		fresh[i].ID = 700000 + uint64(i)
	}
	for i, e := range fresh {
		log = append(log, op{el: e})
		switch {
		case i%9 == 4:
			log = append(log, op{del: true, el: base[i]})
		case i%11 == 6:
			log = append(log, op{del: true, el: fresh[i-3]})
		case i%50 == 17:
			log = append(log, op{del: true, el: e}, op{el: e})
		}
	}
	applySingly := func(set *Set, ops []op) {
		t.Helper()
		for _, o := range ops {
			var err error
			if o.del {
				err = set.StageDelete(o.el.ID, o.el.Box)
			} else {
				err = set.StageInsert(o.el)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	inserted, _ := build("inserted")
	defer func() { inserted.Close() }()
	applySingly(inserted, log)

	// The same log, written by the same calls, then replayed by an open.
	packed, dir := build("packed")
	applySingly(packed, log)
	if err := packed.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := packed.Close(); err != nil {
		t.Fatal(err)
	}
	packed, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { packed.Close() }()
	want := observe(t, inserted, boxes, points)
	if want.inserts == 0 || want.deletes == 0 {
		t.Fatalf("log staged %d inserts, %d deletes", want.inserts, want.deletes)
	}
	if got := observe(t, packed, boxes, points); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed (packed) delta answers differently from the singly inserted one")
	}

	// More single inserts: on the packed side they start new runs beside
	// the replayed one.
	var more []op
	for i, e := range randomElements(r, 600) {
		e.ID = 800000 + uint64(i)
		more = append(more, op{el: e})
	}
	applySingly(inserted, more)
	applySingly(packed, more)
	want = observe(t, inserted, boxes, points)
	if got := observe(t, packed, boxes, points); !reflect.DeepEqual(got, want) {
		t.Fatal("single inserts beside a packed run answer differently")
	}

	// Rebuild, then a second epoch: one bulk call (packed) on one side,
	// single calls on the other.
	for _, set := range []*Set{inserted, packed} {
		if _, err := set.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	second := randomElements(r, 500)
	var secondOps []op
	for i := range second {
		second[i].ID = 900000 + uint64(i)
		secondOps = append(secondOps, op{el: second[i]})
	}
	applySingly(inserted, secondOps)
	if err := packed.StageInsert(second...); err != nil {
		t.Fatal(err)
	}
	tail := []op{{del: true, el: second[3]}, {del: true, el: base[1]}, {el: second[3]}}
	applySingly(inserted, tail)
	applySingly(packed, tail)
	want = observe(t, inserted, boxes, points)
	if got := observe(t, packed, boxes, points); !reflect.DeepEqual(got, want) {
		t.Fatal("second epoch: bulk-staged answers differently from singly staged")
	}
}

// TestRebuildFailureInLaterShardLeavesNothing: when the second of two
// dirty shards cannot be written, the first one's new-generation file
// must not survive, and the set keeps serving the old generation with
// the delta still staged. (A directory squatting on the second shard's
// next file name makes its pager creation fail, also as root.)
func TestRebuildFailureInLaterShardLeavesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	els := randomElements(r, 2000)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	defer set.Close()
	batch := randomElements(r, 400)
	for i := range batch {
		batch[i].ID = 600000 + uint64(i)
	}
	if err := set.StageInsert(batch...); err != nil {
		t.Fatal(err)
	}
	dirty := set.DirtyShards()
	if len(dirty) < 2 {
		t.Fatalf("need two dirty shards, got %v", dirty)
	}
	all := geom.Box(geom.V(-10, -10, -10), geom.V(110, 110, 110))
	before := queryIDs(t, set, all)
	squat := filepath.Join(dir, shardFileName(dirty[1], 1))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := set.Rebuild(); err == nil {
		t.Fatal("Rebuild succeeded with an unwritable shard file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".gen-1.") && e.Name() != filepath.Base(squat) {
			t.Errorf("failed Rebuild left %s behind", e.Name())
		}
	}
	if got := queryIDs(t, set, all); !equalIDs(got, before) {
		t.Error("answers changed after a failed Rebuild")
	}
	if d := set.DeltaStats(); d.Inserts != len(batch) {
		t.Errorf("%d inserts pending after a failed Rebuild, want %d", d.Inserts, len(batch))
	}

	// With the obstacle gone the same delta folds in.
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := set.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, dirty) {
		t.Errorf("rebuilt shards %v, want %v", rebuilt, dirty)
	}
	if got := queryIDs(t, set, all); !equalIDs(got, before) {
		t.Error("answers changed across the successful Rebuild")
	}
}
