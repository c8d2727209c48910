package shard

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flat/internal/geom"
)

// squatManifestTemp makes every manifest swap in dir fail: a directory
// sitting on the manifest's staging name turns writeManifest's open into
// EISDIR (for root too, unlike a permission bit). It returns the undo.
func squatManifestTemp(t *testing.T, dir string) (remove func()) {
	t.Helper()
	squatter := filepath.Join(dir, manifestTempName)
	if err := os.MkdirAll(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(squatter); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles lists dir's shard page files and logs (everything the commit
// step creates or collects), sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); shardFilePattern.MatchString(n) || walFilePattern.MatchString(n) {
			names = append(names, n)
		}
	}
	return names
}

// assertServesManifest checks that the generation set serves is the
// manifest dir commits: the same entries, world, build knobs and log.
func assertServesManifest(t *testing.T, set *Set, dir string) {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := set.now()
	if !reflect.DeepEqual(g.m.Entries, m.Entries) || g.m.World != m.World ||
		g.m.PageCapacity != m.PageCapacity || g.m.SeedFanout != m.SeedFanout || g.m.WAL != m.WAL {
		t.Fatalf("set serves\n%+v\nbut %s commits\n%+v", g.m, dir, m)
	}
}

// TestCommitFailure drives a hard manifest-swap failure through each of
// the three callers of the one commit step. In every case the caller
// reports the error, the fresh log and shard files of the failed
// generation are gone, and the directory still commits exactly what it
// committed before.
func TestCommitFailure(t *testing.T) {
	els := randomElements(rand.New(rand.NewSource(90)), 1200)
	copyEls := func() []geom.Element { return append([]geom.Element(nil), els...) }

	t.Run("Build", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		squatManifestTemp(t, dir)
		if _, err := Build(copyEls(), Config{Shards: 4, PageCapacity: 16, Dir: dir, WAL: true}); err == nil {
			t.Fatal("build committed through a failing manifest swap")
		}
		if left := dirFiles(t, dir); len(left) != 0 {
			t.Fatalf("failed build left %v behind", left)
		}
	})

	t.Run("Rebuild", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		set := buildWALSet(t, copyEls(), dir)
		defer set.Close()
		spot := geom.CubeAt(geom.V(40, 40, 40), 3)
		staged := stageCluster(t, set, 700000, 10, spot)
		if err := set.Flush(); err != nil {
			t.Fatal(err)
		}
		wantIDs := queryIDs(t, set, spot)
		wantDelta := set.DeltaStats()
		wantFiles := dirFiles(t, dir)
		wantManifest, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}

		unsquat := squatManifestTemp(t, dir)
		if _, err := set.Rebuild(); err == nil {
			t.Fatal("rebuild committed through a failing manifest swap")
		}
		if d := set.DeltaStats(); !reflect.DeepEqual(d, wantDelta) {
			t.Fatalf("DeltaStats after failed rebuild = %+v, want %+v", d, wantDelta)
		}
		if got := queryIDs(t, set, spot); !equalIDs(got, wantIDs) {
			t.Fatal("staged elements stopped answering queries after a failed rebuild")
		}
		if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(got) != string(wantManifest) {
			t.Fatalf("failed rebuild changed the manifest:\n%s", got)
		}
		if got := dirFiles(t, dir); strings.Join(got, " ") != strings.Join(wantFiles, " ") {
			t.Fatalf("failed rebuild left %v, want the old generation's %v", got, wantFiles)
		}

		unsquat()
		rebuilt, err := set.Rebuild()
		if err != nil || len(rebuilt) == 0 {
			t.Fatalf("rebuild without the squatter = %v, %v", rebuilt, err)
		}
		if d := set.DeltaStats(); d.Inserts != 0 || d.Deletes != 0 {
			t.Fatalf("DeltaStats after rebuild = %+v, want nothing staged", d)
		}
		if got := queryIDs(t, set, spot); !equalIDs(got, wantIDs) {
			t.Fatal("the same delta did not fold on the retry")
		}
		if n := set.Len(); n != len(els)+len(staged) {
			t.Fatalf("Len after rebuild = %d, want %d", n, len(els)+len(staged))
		}
	})

	// The bulkload step refuses after it wrote a page file: shard 0
	// bulkloads its staged insert (every job runs to completion, failing
	// or not), while shard 1's only element, staged for deletion, would
	// leave it empty. What shard 0 wrote must go, and nothing else move.
	t.Run("Rebuild, bulkload refused", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		two := []geom.Element{
			{ID: 1, Box: geom.CubeAt(geom.V(0, 0, 0), 1)},
			{ID: 2, Box: geom.CubeAt(geom.V(100, 100, 100), 1)},
		}
		set, err := Build(two, Config{Shards: 2, Dir: dir, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		only := func(sh int) geom.Element {
			t.Helper()
			got, _, err := set.Shard(sh).RangeQuery(set.ShardBounds(sh))
			if err != nil || len(got) != 1 {
				t.Fatalf("shard %d holds %v (%v), want one element", sh, got, err)
			}
			return got[0]
		}
		first, last := only(0), only(1)
		stageCluster(t, set, 500, 1, first.Box)
		if err := set.StageDelete(last.ID, last.Box); err != nil {
			t.Fatal(err)
		}
		if dirty := set.DirtyShards(); !reflect.DeepEqual(dirty, []int{0, 1}) {
			t.Fatalf("dirty shards %v, want [0 1]", dirty)
		}
		all := geom.Box(geom.V(-10, -10, -10), geom.V(110, 110, 110))
		wantIDs := queryIDs(t, set, all)
		wantDelta := set.DeltaStats()
		wantFiles := dirFiles(t, dir)
		wantManifest, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}

		if _, err := set.Rebuild(); err == nil || !strings.Contains(err.Error(), "would leave shard 1 empty") {
			t.Fatalf("rebuild emptying shard 1: err = %v, want the refusal", err)
		}
		if d := set.DeltaStats(); !reflect.DeepEqual(d, wantDelta) {
			t.Fatalf("DeltaStats after refused rebuild = %+v, want %+v", d, wantDelta)
		}
		if got := queryIDs(t, set, all); !equalIDs(got, wantIDs) {
			t.Fatalf("answers after refused rebuild = %v, want %v", got, wantIDs)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(got) != string(wantManifest) {
			t.Fatalf("refused rebuild changed the manifest:\n%s", got)
		}
		if got := dirFiles(t, dir); strings.Join(got, " ") != strings.Join(wantFiles, " ") {
			t.Fatalf("refused rebuild left %v, want %v", got, wantFiles)
		}
		assertServesManifest(t, set, dir)

		// Restaged, shard 1 keeps an element and the same delta commits.
		stageCluster(t, set, 600, 1, last.Box)
		rebuilt, err := set.Rebuild()
		if err != nil || !reflect.DeepEqual(rebuilt, []int{0, 1}) {
			t.Fatalf("retry rebuilt %v, %v; want [0 1]", rebuilt, err)
		}
		assertServesManifest(t, set, dir)
		if n, _ := countStream(t, set, context.Background(), all); n != 3 || set.Len() != 3 {
			t.Fatalf("after the retry: count %d, Len %d; want 3", n, set.Len())
		}
	})

	t.Run("OpenSet WAL upgrade", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		set, err := Build(copyEls(), Config{Shards: 4, PageCapacity: 16, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		wantFiles := dirFiles(t, dir)
		squatManifestTemp(t, dir)
		if _, err := OpenSet(dir, OpenOptions{WAL: true}); err == nil {
			t.Fatal("WAL upgrade committed through a failing manifest swap")
		}
		if got := dirFiles(t, dir); strings.Join(got, " ") != strings.Join(wantFiles, " ") {
			t.Fatalf("failed upgrade left %v, want %v (no log)", got, wantFiles)
		}
		re, err := OpenSet(dir, OpenOptions{})
		if err != nil {
			t.Fatalf("directory no longer opens after a failed upgrade: %v", err)
		}
		if re.Len() != len(els) {
			t.Fatalf("Len = %d, want %d", re.Len(), len(els))
		}
		re.Close()
	})
}
