package shard

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// TestShardedV2RoundTrip drives page format v2 through the full sharded
// lifecycle: build to disk, manifest recording, reopen, staged updates,
// rebuild, reopen again — the format must survive every step and the
// results must match brute force throughout.
func TestShardedV2RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	els := randomElements(r, 3000)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "v2")
	queries := testQueries(r, 15)

	set, err := Build(els, Config{Shards: 3, Dir: dir, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < set.NumShards(); s++ {
		if f := set.Shard(s).PageFormat(); f != storage.PageFormatV2 {
			t.Fatalf("shard %d built with format %v", s, f)
		}
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range m.Entries {
		if e.PageFormat != int(storage.PageFormatV2) {
			t.Fatalf("manifest entry %d records format %d", s, e.PageFormat)
		}
	}
	for i, q := range queries {
		got, _ := collectStream(t, set, context.Background(), q)
		if !equalIDs(sortedIDs(got), brute(orig, q)) {
			t.Fatalf("query %d wrong on fresh v2 set", i)
		}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for s := 0; s < re.NumShards(); s++ {
		if f := re.Shard(s).PageFormat(); f != storage.PageFormatV2 {
			t.Fatalf("reopened shard %d has format %v", s, f)
		}
	}

	// Stage updates and rebuild: the rebuilt generations must keep v2.
	ins := []geom.Element{
		{ID: 90001, Box: geom.CubeAt(geom.V(10, 10, 10), 1)},
		{ID: 90002, Box: geom.CubeAt(geom.V(80, 80, 80), 1)},
	}
	if err := re.StageInsert(ins...); err != nil {
		t.Fatal(err)
	}
	if err := re.StageDelete(orig[0].ID, orig[0].Box); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := re.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) == 0 {
		t.Fatal("rebuild touched no shards")
	}
	want := append(append([]geom.Element(nil), orig[1:]...), ins...)
	for s := 0; s < re.NumShards(); s++ {
		if f := re.Shard(s).PageFormat(); f != storage.PageFormatV2 {
			t.Fatalf("shard %d lost v2 across rebuild: %v", s, f)
		}
	}
	m, err = readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range m.Entries {
		if e.PageFormat != int(storage.PageFormatV2) {
			t.Fatalf("post-rebuild manifest entry %d records format %d", s, e.PageFormat)
		}
	}
	for i, q := range queries {
		got, _ := collectStream(t, re, context.Background(), q)
		if !equalIDs(sortedIDs(got), brute(want, q)) {
			t.Fatalf("query %d wrong after rebuild", i)
		}
	}
}

// buildShardFile bulkloads els into dir/<shard file> as shard s under
// the given page format, exactly as the sharded Build does per shard.
func buildShardFile(t *testing.T, dir string, s int, els []geom.Element, format storage.PageFormat) *core.Index {
	t.Helper()
	mem := storage.NewMemPager()
	view, err := storage.NewShardView(mem, s)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]geom.Element(nil), els...)
	ix, err := core.Build(storage.NewConcurrentPool(view, 0), cp, core.Options{PageFormat: format})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteFile(filepath.Join(dir, shardFileName(s, 0))); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestMixedFormatGenerations is the regression test for the tentpole's
// compatibility claim: a directory whose shards use different page
// formats opens behind one shared ConcurrentPool, queries correctly
// (page decode is self-describing), and Rebuild preserves each shard's
// own format across generations.
func TestMixedFormatGenerations(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	dir := t.TempDir()

	// Two spatially separated halves, one shard each: shard 0 in v1,
	// shard 1 in v2.
	var left, right []geom.Element
	for i := 0; i < 2400; i++ {
		c := geom.V(r.Float64()*40, r.Float64()*100, r.Float64()*100)
		if i%2 == 1 {
			c.X += 60
		}
		e := geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 0.5)}
		if i%2 == 0 {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	ix0 := buildShardFile(t, dir, 0, left, storage.PageFormatV1)
	ix1 := buildShardFile(t, dir, 1, right, storage.PageFormatV2)
	world := ix0.Bounds().Union(ix1.Bounds())
	m := manifest{
		World: mbrToArray(world),
		Entries: []shardEntry{
			{File: shardFileName(0, 0), Bounds: mbrToArray(ix0.Bounds()), Elements: ix0.Len(), PageFormat: manifestFormat(ix0.PageFormat())},
			{File: shardFileName(1, 0), Bounds: mbrToArray(ix1.Bounds()), Elements: ix1.Len(), PageFormat: manifestFormat(ix1.PageFormat())},
		},
	}
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if f := set.Shard(0).PageFormat(); f != storage.PageFormatV1 {
		t.Fatalf("shard 0 format %v", f)
	}
	if f := set.Shard(1).PageFormat(); f != storage.PageFormatV2 {
		t.Fatalf("shard 1 format %v", f)
	}

	all := append(append([]geom.Element(nil), left...), right...)
	queries := testQueries(r, 20)
	check := func(stage string, want []geom.Element) {
		t.Helper()
		for i, q := range queries {
			got, _ := collectStream(t, set, context.Background(), q)
			if !equalIDs(sortedIDs(got), brute(want, q)) {
				t.Fatalf("%s: query %d wrong", stage, i)
			}
		}
	}
	check("mixed open", all)

	// Stage updates landing in both shards and rebuild: each shard's new
	// generation must keep its own format.
	ins := []geom.Element{
		{ID: 80001, Box: geom.CubeAt(geom.V(20, 50, 50), 1)},
		{ID: 80002, Box: geom.CubeAt(geom.V(80, 50, 50), 1)},
	}
	if err := set.StageInsert(ins...); err != nil {
		t.Fatal(err)
	}
	if err := set.StageDelete(left[0].ID, left[0].Box); err != nil {
		t.Fatal(err)
	}
	if err := set.StageDelete(right[0].ID, right[0].Box); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := set.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 2 {
		t.Fatalf("rebuilt shards %v, want both", rebuilt)
	}
	if f := set.Shard(0).PageFormat(); f != storage.PageFormatV1 {
		t.Fatalf("shard 0 changed format across rebuild: %v", f)
	}
	if f := set.Shard(1).PageFormat(); f != storage.PageFormatV2 {
		t.Fatalf("shard 1 changed format across rebuild: %v", f)
	}
	want := append(append(append([]geom.Element(nil), left[1:]...), right[1:]...), ins...)
	check("after rebuild", want)

	// The rebuilt generations reopen with their formats intact, and the
	// manifest still records the mix.
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Entries[0].PageFormat != 0 || m2.Entries[1].PageFormat != int(storage.PageFormatV2) {
		t.Fatalf("post-rebuild manifest formats: %d, %d", m2.Entries[0].PageFormat, m2.Entries[1].PageFormat)
	}
	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shard(0).PageFormat() != storage.PageFormatV1 || re.Shard(1).PageFormat() != storage.PageFormatV2 {
		t.Fatal("reopened mixed set lost its formats")
	}
	set = re
	check("mixed reopen", want)
}

// TestManifestFormatCrossCheck covers the Open-time validation of the
// manifest's page-format records against the shard superblocks.
func TestManifestFormatCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	els := randomElements(r, 500)
	dir := t.TempDir()
	set, err := Build(els, Config{Shards: 2, Dir: dir, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A manifest claiming the wrong format must be rejected.
	bad := m
	bad.Entries = append([]shardEntry(nil), m.Entries...)
	bad.Entries[1].PageFormat = int(storage.PageFormatV1)
	if err := writeManifest(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "page format") {
		t.Fatalf("format mismatch not rejected: %v", err)
	}
	// An unknown format number fails manifest validation outright.
	bad.Entries[1].PageFormat = 9
	if err := writeManifest(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "unknown page format") {
		t.Fatalf("unknown format not rejected: %v", err)
	}
	// A zero record (pre-v2 manifest) is tolerated regardless of the
	// actual on-disk format — the superblock is authoritative.
	for i := range bad.Entries {
		bad.Entries[i].PageFormat = 0
	}
	if err := writeManifest(dir, bad); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Shard(0).PageFormat() != storage.PageFormatV2 {
		t.Fatal("superblock format lost under a zero manifest record")
	}
	re.Close()
}
