package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"flat/internal/geom"
	"flat/internal/neuro"
	"flat/internal/storage"
)

// Microbenchmarks of the construction paths — the whole bulkload, and
// above core.Build the shard split, Rebuild and the replaying open — at
// the shape of the served benchmark (benchmark/): K=4, v2 pages, a delta
// of 5 % staged inserts and 1 % staged deletes. allocs/op is the number
// to compare; ns/op is noise-bound on a small box.

// BenchmarkBulkload is Build end to end, into a directory, then Close:
// K=4, v2 pages, over a fixed 112 500-element neuron model (a quarter of
// the served benchmark's). It reports time and bytes allocated per
// element; the bytes include the index's own pages, which each shard is
// built into in memory before its file is written.
func BenchmarkBulkload(b *testing.B) {
	src := neuro.Generate(neuro.Config{Seed: 1, TargetElements: 112_500, SegmentsPerNeuron: 1500}).Elements[:112_500]
	els := make([]geom.Element, len(src))
	root := b.TempDir()
	var allocated uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(els, src)
		dir := filepath.Join(root, fmt.Sprint(i))
		runtime.ReadMemStats(&before)
		b.StartTimer()
		set, err := Build(els, Config{Shards: 4, PageFormat: storage.PageFormatV2, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := set.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	per := float64(b.N * len(src))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/element")
	b.ReportMetric(float64(allocated)/per, "B/element")
}

func BenchmarkSplitHilbert(b *testing.B) {
	src := randomElements(rand.New(rand.NewSource(3)), 450_000)
	world := geom.ElementsMBR(src)
	els := make([]geom.Element, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(els, src)
		b.StartTimer()
		if groups := splitHilbert(els, 4, world); len(groups) != 4 {
			b.Fatalf("%d groups", len(groups))
		}
	}
}

// stageBenchDelta stages n/20 inserts in one call and n/100 deletes of
// distinct base elements, the served benchmark's pre-timing delta.
func stageBenchDelta(b *testing.B, set *Set, base []geom.Element) {
	b.Helper()
	n := len(base)
	fresh := randomElements(rand.New(rand.NewSource(4)), n/20)
	for i := range fresh {
		fresh[i].ID = uint64(n + i)
	}
	if err := set.StageInsert(fresh...); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n/100; i++ {
		e := base[i*100]
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebuild(b *testing.B) {
	base := randomElements(rand.New(rand.NewSource(3)), 100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 4, PageFormat: storage.PageFormatV2})
		if err != nil {
			b.Fatal(err)
		}
		stageBenchDelta(b, set, base)
		b.StartTimer()
		rebuilt, err := set.Rebuild()
		b.StopTimer()
		if err != nil || len(rebuilt) != 4 {
			b.Fatalf("rebuilt %v: %v", rebuilt, err)
		}
		set.Close()
		b.StartTimer()
	}
}

// BenchmarkReplayOpen opens a directory whose log holds 27 000 records
// (22 500 inserts, 4 500 deletes): the open that flatserve pays after a
// crash, and that the served benchmark's mixed_rw pays in setup_s.
func BenchmarkReplayOpen(b *testing.B) {
	base := randomElements(rand.New(rand.NewSource(3)), 450_000)
	dir := filepath.Join(b.TempDir(), "idx")
	set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 4, PageFormat: storage.PageFormatV2, Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	stageBenchDelta(b, set, base)
	if err := set.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := set.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := OpenSet(dir, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if d := set.DeltaStats(); d.Inserts != 22_500 || d.Deletes != 4_500 {
			b.Fatalf("replayed %d inserts, %d deletes", d.Inserts, d.Deletes)
		}
		set.Close()
		b.StartTimer()
	}
}
