package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// stageCluster stages n identical-box elements (ids startID..) and
// returns them; identical boxes route to one shard, which the caller
// reads back via DirtyShards.
func stageCluster(t *testing.T, set *Set, startID uint64, n int, box geom.MBR) []geom.Element {
	t.Helper()
	els := make([]geom.Element, n)
	for i := range els {
		els[i] = geom.Element{ID: startID + uint64(i), Box: box}
	}
	if err := set.StageInsert(els...); err != nil {
		t.Fatal(err)
	}
	return els
}

func readShardFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if shardFilePattern.MatchString(e.Name()) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
	}
	return files
}

// TestStagedOverlay pins the read-your-writes contract between
// rebuilds: staged inserts appear in Range/Count results immediately,
// staged deletes hide both bulkloaded elements and staged inserts, and
// none of it costs page reads.
func TestStagedOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	els := randomElements(r, 3000)
	orig := append([]geom.Element(nil), els...)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	all := geom.Box(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))

	// Insert overlay: new elements appear without a rebuild.
	ins := geom.Element{ID: 900001, Box: geom.CubeAt(geom.V(50, 50, 50), 1)}
	if err := set.StageInsert(ins); err != nil {
		t.Fatal(err)
	}
	got, st := collectStream(t, set, context.Background(), all)
	if len(got) != len(orig)+1 || st.Results != len(got) {
		t.Fatalf("after staged insert: %d results (stats %d), want %d", len(got), st.Results, len(orig)+1)
	}
	n, cst := countStream(t, set, context.Background(), all)
	if n != len(orig)+1 || cst.Results != n {
		t.Fatalf("after staged insert: count %d, want %d", n, len(orig)+1)
	}
	// A query away from the staged element must not see it and must not
	// pay any overlay cost in page reads.
	far := geom.CubeAt(orig[0].Box.Center(), 3)
	if !ins.Box.Intersects(far) {
		base := brute(orig, far)
		got, _ := collectStream(t, set, context.Background(), far)
		if !equalIDs(sortedIDs(got), base) {
			t.Fatal("staged insert leaked into an unrelated query")
		}
	}

	// Delete overlay: a bulkloaded element disappears.
	victim := orig[123]
	if err := set.StageDelete(victim.ID, victim.Box); err != nil {
		t.Fatal(err)
	}
	got, _ = collectStream(t, set, context.Background(), all)
	if len(got) != len(orig) { // +1 insert, -1 delete
		t.Fatalf("after staged delete: %d results, want %d", len(got), len(orig))
	}
	for _, e := range got {
		if e.ID == victim.ID && e.Box == victim.Box {
			t.Fatal("staged delete did not hide the element")
		}
	}
	n, _ = countStream(t, set, context.Background(), all)
	if n != len(orig) {
		t.Fatalf("after staged delete: count %d, want %d", n, len(orig))
	}

	// Deleting a staged insert hides it too.
	if err := set.StageDelete(ins.ID, ins.Box); err != nil {
		t.Fatal(err)
	}
	n, _ = countStream(t, set, context.Background(), all)
	if n != len(orig)-1 {
		t.Fatalf("after deleting the staged insert: count %d, want %d", n, len(orig)-1)
	}

	if d := set.DeltaStats(); d.Inserts != 1 || d.Deletes != 2 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes; want 1, 2", d.Inserts, d.Deletes)
	}
}

// TestRebuildOnlyDirtyShards is the tentpole's acceptance invariant:
// with staged updates confined to one shard, Rebuild rewrites only that
// shard's page file (the other shards' files stay byte-identical under
// their old names), results equal a from-scratch full rebuild, and the
// manifest moves to v2 generation bookkeeping.
func TestRebuildOnlyDirtyShards(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	els := randomElements(r, 3000)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	before := readShardFiles(t, dir)
	if len(before) != 4 {
		t.Fatalf("build left %d shard files, want 4", len(before))
	}
	assertServesManifest(t, set, dir)

	staged := stageCluster(t, set, 700000, 40, geom.CubeAt(geom.V(42, 42, 42), 1.5))
	dirty := set.DirtyShards()
	if len(dirty) != 1 {
		t.Fatalf("identical staged boxes touched %d shards, want 1", len(dirty))
	}
	target := dirty[0]

	rebuilt, err := set.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 || rebuilt[0] != target {
		t.Fatalf("Rebuild() = %v, want [%d]", rebuilt, target)
	}
	if d := set.DeltaStats(); d.Inserts != 0 || d.Deletes != 0 {
		t.Fatalf("pending after rebuild: %d inserts, %d deletes", d.Inserts, d.Deletes)
	}
	if g := set.Generation(target); g != 1 {
		t.Fatalf("rebuilt shard generation = %d, want 1", g)
	}
	assertServesManifest(t, set, dir)

	after := readShardFiles(t, dir)
	if len(after) != 4 {
		t.Fatalf("rebuild left %d shard files, want 4", len(after))
	}
	for s := 0; s < 4; s++ {
		if s == target {
			name := shardFileName(s, 1)
			if _, ok := after[name]; !ok {
				t.Errorf("dirty shard %d: missing new generation file %s", s, name)
			}
			if _, ok := after[shardFileName(s, 0)]; ok {
				t.Errorf("dirty shard %d: old generation file not garbage-collected", s)
			}
			continue
		}
		name := shardFileName(s, 0)
		oldData, newData := before[name], after[name]
		if newData == nil {
			t.Fatalf("clean shard %d: file %s disappeared", s, name)
		}
		if string(oldData) != string(newData) {
			t.Errorf("clean shard %d: file %s changed bytes across a rebuild it was not part of", s, name)
		}
	}

	// Manifest is v2 with per-shard generations.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestV2 || len(m.Entries) != 4 {
		t.Fatalf("manifest after rebuild: version %d, %d entries", m.Version, len(m.Entries))
	}
	for s, e := range m.Entries {
		wantGen := uint64(0)
		if s == target {
			wantGen = 1
		}
		if e.Generation != wantGen || e.File != shardFileName(s, wantGen) {
			t.Errorf("manifest entry %d: file %s gen %d, want %s gen %d", s, e.File, e.Generation, shardFileName(s, wantGen), wantGen)
		}
	}

	// Results ≡ a from-scratch full rebuild over the merged element set.
	merged := append(append([]geom.Element(nil), orig...), staged...)
	full, err := Build(append([]geom.Element(nil), merged...), Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if set.Len() != len(merged) || full.Len() != len(merged) {
		t.Fatalf("Len after rebuild = %d (full rebuild %d), want %d", set.Len(), full.Len(), len(merged))
	}
	for i, q := range append(testQueries(r, 25), geom.CubeAt(geom.V(42, 42, 42), 4)) {
		want := brute(merged, q)
		got, st := collectStream(t, set, context.Background(), q)
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %d: incremental rebuild diverges from brute force", i)
		}
		if st.Results != len(got) {
			t.Errorf("query %d: stats.Results %d != %d results", i, st.Results, len(got))
		}
		fgot, _ := collectStream(t, full, context.Background(), q)
		if !equalIDs(sortedIDs(fgot), want) {
			t.Fatalf("query %d: full rebuild diverges from brute force", i)
		}
	}

	// The swapped state survives a close/reopen cycle.
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertServesManifest(t, re, dir)
	if re.Len() != len(merged) || re.Generation(target) != 1 {
		t.Fatalf("reopened: %d elements, generation %d", re.Len(), re.Generation(target))
	}
	q := geom.CubeAt(geom.V(42, 42, 42), 4)
	got, _ := collectStream(t, re, context.Background(), q)
	if !equalIDs(sortedIDs(got), brute(merged, q)) {
		t.Fatal("reopened index diverges from brute force")
	}
}

// TestRebuildDeletes exercises the delete path end to end: deletes
// dirty the shards they may touch, the rebuilt index drops the
// elements, and the element count comes down.
func TestRebuildDeletes(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	els := randomElements(r, 2000)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(els, Config{Shards: 3, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	victims := []geom.Element{orig[10], orig[500], orig[1999]}
	for _, v := range victims {
		if err := set.StageDelete(v.ID, v.Box); err != nil {
			t.Fatal(err)
		}
	}
	if d := set.DirtyShards(); len(d) == 0 {
		t.Fatal("deletes dirtied no shard")
	}
	if _, err := set.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(orig)-len(victims) {
		t.Fatalf("Len after delete rebuild = %d, want %d", set.Len(), len(orig)-len(victims))
	}
	doomed := make([]pendingDelete, len(victims))
	for i, v := range victims {
		doomed[i] = pendingDelete{ID: v.ID, Box: v.Box}
	}
	survivors := make([]geom.Element, 0, len(orig))
	for _, e := range orig {
		if !matchesDelete(doomed, e) {
			survivors = append(survivors, e)
		}
	}
	for i, q := range testQueries(r, 20) {
		got, _ := collectStream(t, set, context.Background(), q)
		if !equalIDs(sortedIDs(got), brute(survivors, q)) {
			t.Fatalf("query %d diverges after delete rebuild", i)
		}
	}

	// A second epoch whose delete list reaches the first one's length
	// but names other elements: a delete index reused by list length, or
	// carried over from the consumed epoch, would hide the old victims'
	// ids and none of the new ones.
	second := []geom.Element{orig[20], orig[600], orig[1500]}
	for _, v := range second {
		if err := set.StageDelete(v.ID, v.Box); err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, pendingDelete{ID: v.ID, Box: v.Box})
	}
	survivors = slices.DeleteFunc(survivors, func(e geom.Element) bool { return matchesDelete(doomed, e) })
	// Every victim's own box is queried, so each is looked for by name.
	queries := testQueries(r, 20)
	for _, d := range doomed {
		queries = append(queries, d.Box)
	}
	for _, when := range []string{"overlaid", "rebuilt"} {
		for i, q := range queries {
			got, _ := collectStream(t, set, context.Background(), q)
			if !equalIDs(sortedIDs(got), brute(survivors, q)) {
				t.Fatalf("second delete epoch, %s: query %d diverges", when, i)
			}
		}
		if when == "overlaid" {
			if _, err := set.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if set.Len() != len(survivors) {
		t.Fatalf("Len after the second delete epoch = %d, want %d", set.Len(), len(survivors))
	}

	// A second rebuild with nothing staged is a no-op.
	rebuilt, err := set.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != nil {
		t.Fatalf("no-op rebuild returned %v", rebuilt)
	}

	// A delete that matches nothing dirties candidates but must not
	// rewrite any shard: the files stay untouched and the epoch clears.
	files := readShardFiles(t, dir)
	if err := set.StageDelete(999999999, geom.CubeAt(geom.V(50, 50, 50), 200)); err != nil {
		t.Fatal(err)
	}
	if d := set.DirtyShards(); len(d) == 0 {
		t.Fatal("broad no-op delete produced no candidates")
	}
	rebuilt, err = set.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != nil {
		t.Fatalf("no-op delete rebuilt shards %v", rebuilt)
	}
	if d := set.DeltaStats(); d.Deletes != 0 {
		t.Fatalf("no-op delete not consumed: %d pending", d.Deletes)
	}
	for name, data := range readShardFiles(t, dir) {
		if string(files[name]) != string(data) {
			t.Errorf("no-op delete rewrote %s", name)
		}
	}
}

// TestStagingLastOpWins pins the ordering semantics: a delete dooms
// only the elements (bulkloaded or staged) that precede it, and a
// matching insert staged after the delete restores the element — both
// through the overlay and through Rebuild.
func TestStagingLastOpWins(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	els := randomElements(r, 1000)
	orig := append([]geom.Element(nil), els...)
	set, err := Build(els, Config{Shards: 3, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	all := geom.Box(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))
	count := func() int {
		t.Helper()
		n, _ := countStream(t, set, context.Background(), all)
		return n
	}

	// Delete a bulkloaded element, then re-insert the same (id, box)
	// pair: the insert wins, the element exists exactly once.
	victim := orig[77]
	if err := set.StageDelete(victim.ID, victim.Box); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != len(orig)-1 {
		t.Fatalf("after delete: %d, want %d", got, len(orig)-1)
	}
	if err := set.StageInsert(victim); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != len(orig) {
		t.Fatalf("after delete+reinsert: %d, want %d (restore)", got, len(orig))
	}

	// Insert then delete: the delete wins.
	fresh := geom.Element{ID: 999001, Box: geom.CubeAt(geom.V(5, 5, 5), 1)}
	if err := set.StageInsert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := set.StageDelete(fresh.ID, fresh.Box); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != len(orig) {
		t.Fatalf("after insert+delete: %d, want %d", got, len(orig))
	}

	// Rebuild must agree with the overlay on all of the above.
	if _, err := set.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(orig) || count() != len(orig) {
		t.Fatalf("after rebuild: Len %d, count %d, want %d", set.Len(), count(), len(orig))
	}
	got, _ := collectStream(t, set, context.Background(), geom.CubeAt(victim.Box.Center(), 0.1))
	seen := 0
	for _, e := range got {
		if e.ID == victim.ID && e.Box == victim.Box {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("restored element appears %d times, want exactly 1", seen)
	}
}

// TestRebuildMemoryBacked runs the staged-update cycle on a pure
// in-memory set: same semantics, no files.
func TestRebuildMemoryBacked(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	els := randomElements(r, 1500)
	orig := append([]geom.Element(nil), els...)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	staged := stageCluster(t, set, 800000, 25, geom.CubeAt(geom.V(10, 90, 10), 2))
	if err := set.StageDelete(orig[7].ID, orig[7].Box); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Rebuild(); err != nil {
		t.Fatal(err)
	}
	merged := append([]geom.Element(nil), orig[:7]...)
	merged = append(merged, orig[8:]...)
	merged = append(merged, staged...)
	if set.Len() != len(merged) {
		t.Fatalf("Len = %d, want %d", set.Len(), len(merged))
	}
	for i, q := range testQueries(r, 20) {
		got, _ := collectStream(t, set, context.Background(), q)
		if !equalIDs(sortedIDs(got), brute(merged, q)) {
			t.Fatalf("query %d diverges after memory rebuild", i)
		}
	}
}

// TestRebuildRefusesToEmptyShard: dropping a whole shard would strand
// the remaining shards' baked-in shard tags, so the rebuild must refuse
// and keep serving the staged view.
func TestRebuildRefusesToEmptyShard(t *testing.T) {
	els := []geom.Element{
		{ID: 1, Box: geom.CubeAt(geom.V(0, 0, 0), 1)},
		{ID: 2, Box: geom.CubeAt(geom.V(100, 100, 100), 1)},
	}
	set, err := Build(els, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.NumShards() != 2 {
		t.Fatalf("want 2 single-element shards, got %d", set.NumShards())
	}
	if err := set.StageDelete(1, geom.CubeAt(geom.V(0, 0, 0), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Rebuild(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("rebuild emptying a shard: err = %v, want refusal", err)
	}
	// The overlay still hides the element; the set keeps working.
	n, _ := countStream(t, set, context.Background(), geom.Box(geom.V(-10, -10, -10), geom.V(200, 200, 200)))
	if n != 1 {
		t.Fatalf("after refused rebuild: count %d, want 1", n)
	}
}

// TestCrashBeforeManifestSwap simulates the rebuild crash window: a new
// generation file exists on disk but the manifest still references the
// old generation. Open must serve the old generation, and the next
// successful rebuild must garbage-collect the strand.
func TestCrashBeforeManifestSwap(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	els := randomElements(r, 1200)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(els, Config{Shards: 3, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	// Strand a "new generation" of shard 1 (contents irrelevant — the
	// crash may have left it complete or torn) plus a torn manifest temp.
	strand := filepath.Join(dir, shardFileName(1, 1))
	if err := os.WriteFile(strand, []byte("torn rebuild output"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestTempName), []byte("{torn json"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open with stranded rebuild output: %v", err)
	}
	if re.Len() != len(orig) {
		t.Fatalf("reopened %d elements, want %d", re.Len(), len(orig))
	}
	q := testQueries(r, 1)[0]
	got, _ := collectStream(t, re, context.Background(), q)
	if !equalIDs(sortedIDs(got), brute(orig, q)) {
		t.Fatal("old generation does not serve correct results after simulated crash")
	}

	// A successful rebuild sweeps the strands.
	stageCluster(t, re, 910000, 5, geom.CubeAt(geom.V(55, 55, 55), 1))
	if _, err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(strand); !os.IsNotExist(err) {
		// The rebuild may have reused the stranded name for shard 1's new
		// generation; it is only garbage if unreferenced.
		m, merr := readManifest(dir)
		if merr != nil {
			t.Fatal(merr)
		}
		referenced := false
		for _, e := range m.Entries {
			referenced = referenced || e.File == filepath.Base(strand)
		}
		if !referenced {
			t.Error("stranded generation file survived a successful rebuild's GC")
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestTempName)); !os.IsNotExist(err) {
		t.Error("torn manifest temp file survived GC")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, OpenOptions{}); err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
}

// TestFailedBuildCleansUp: a build that dies mid-way must not leave
// partial page files (or a manifest) behind.
func TestFailedBuildCleansUp(t *testing.T) {
	// PageCapacity beyond the page's physical capacity fails inside
	// every shard's core.Build, after the page files were created. With
	// every shard failing on concurrent goroutines, the reported shard
	// must still be the lowest one, whatever the scheduling: each trial
	// is a fresh race.
	for _, k := range []int{2, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			r := rand.New(rand.NewSource(45))
			els := randomElements(r, 200)
			dir := filepath.Join(t.TempDir(), "idx")
			_, err := Build(els, Config{Shards: k, PageCapacity: 100000, Dir: dir})
			if err == nil {
				t.Fatalf("K=%d trial %d: build with absurd page capacity should fail", k, trial)
			}
			if !strings.HasPrefix(err.Error(), "shard 0:") {
				t.Errorf("K=%d trial %d: build reported %q, want the lowest failing shard (shard 0)", k, trial, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("K=%d trial %d: failed build left %s behind", k, trial, e.Name())
			}
		}
	}
}

// TestBuildIntoExistingDir: rebuilding a directory with a different K
// must atomically replace the old index — a failed attempt leaves the
// old index openable, a successful one garbage-collects every stale
// shard file so SizeBytes and the directory agree.
func TestBuildIntoExistingDir(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	els := randomElements(r, 1500)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(append([]geom.Element(nil), orig...), Config{Shards: 4, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	// A failed re-build must leave the old index untouched.
	if _, err := Build(append([]geom.Element(nil), orig...), Config{Shards: 2, PageCapacity: 100000, Dir: dir}); err == nil {
		t.Fatal("bad rebuild should fail")
	}
	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("old index must survive a failed re-build: %v", err)
	}
	if re.NumShards() != 4 || re.Len() != len(orig) {
		t.Fatalf("old index corrupted: %d shards, %d elements", re.NumShards(), re.Len())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A successful re-build with smaller K replaces it and GCs the
	// stale shard files.
	set2, err := Build(append([]geom.Element(nil), orig...), Config{Shards: 2, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertServesManifest(t, set2, dir)
	files := readShardFiles(t, dir)
	if len(files) != 2 {
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		t.Fatalf("re-built dir holds %d shard files (%v), want 2", len(files), names)
	}
	var onDisk uint64
	for _, data := range files {
		onDisk += uint64(len(data))
	}
	// Each shard file carries one superblock page beyond SizeBytes'
	// object+metadata+seed accounting.
	if want := set2.SizeBytes() + 2*uint64(4096); onDisk != want {
		t.Errorf("on-disk bytes %d, want %d (SizeBytes + 2 superblocks) — stale files inflate the directory", onDisk, want)
	}
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}
	// The manifest now references generation-suffixed names; the next
	// build must parse them (it used to panic) and move past them.
	set3, err := Build(append([]geom.Element(nil), orig...), Config{Shards: 2, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if g := set3.Generation(1); g != 2 {
		t.Errorf("third build into the directory is at generation %d, want 2", g)
	}
	assertServesManifest(t, set3, dir)
	if err := set3.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	assertServesManifest(t, re2, dir)
	if re2.NumShards() != 2 || re2.Len() != len(orig) {
		t.Fatalf("replaced index: %d shards, %d elements", re2.NumShards(), re2.Len())
	}
	q := testQueries(r, 1)[0]
	got, _ := collectStream(t, re2, context.Background(), q)
	if !equalIDs(sortedIDs(got), brute(orig, q)) {
		t.Fatal("replaced index diverges from brute force")
	}
}

// TestManifestV1Rejected: a directory committed by the PR-2 era v1
// manifest (shard count + world only) is refused by version, not
// misread.
func TestManifestV1Rejected(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(randomElements(r, 1000), Config{Shards: 3, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	world := set.World()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest in the v1 schema (fresh builds use gen-0
	// file names, exactly what v1 expected).
	v1 := map[string]any{
		"version": 1,
		"shards":  3,
		"world": [6]float64{world.Min.X, world.Min.Y, world.Min.Z,
			world.Max.X, world.Max.Y, world.Max.Z},
	}
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSet(dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "unsupported manifest version 1") {
		t.Fatalf("open of a v1 manifest: %v, want unsupported manifest version 1", err)
	}
}

// TestManifestFileNameFollowsGeneration: a manifest entry names exactly
// the file its shard and generation derive, and a manifest that names
// anything else is refused — by open and by a build into the directory —
// leaving every byte in place. The first row is the data-loss repro: a
// set that served it kept the generation numbers and forgot the names,
// so its next Rebuild (generation 3) overwrote the live
// shard-0000.gen-3.flat before its commit point, committed entry 1 as a
// shard-0001.gen-2.flat that never existed, and collected
// shard-0001.flat; the directory no longer opened.
func TestManifestFileNameFollowsGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	els := randomElements(r, 800)
	cases := []struct {
		name   string
		rename string // shard 0's file is renamed to this (and the entry follows); "" keeps it
		gen1   uint64 // entry 1's generation (its file stays shard-0001.flat)
		entry  int    // the entry the refusal names
	}{
		{"renamed to a later generation", "shard-0000.gen-3.flat", 2, 0},
		{"generation 0 with a suffix", "shard-0000.gen-0.flat", 0, 0},
		{"suffix-less at generation 1", "", 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "idx")
			set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 2, PageCapacity: 16, Dir: dir, WAL: true})
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
			if c.rename != "" {
				if err := os.Rename(filepath.Join(dir, m.Entries[0].File), filepath.Join(dir, c.rename)); err != nil {
					t.Fatal(err)
				}
				m.Entries[0].File = c.rename
			}
			m.Entries[1].Generation = c.gen1
			if err := writeManifest(dir, m); err != nil {
				t.Fatal(err)
			}
			snapshot := func() map[string]string {
				t.Helper()
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				files := map[string]string{}
				for _, e := range entries {
					data, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					files[e.Name()] = string(data)
				}
				return files
			}
			before := snapshot()

			want := fmt.Sprintf("manifest entry %d names file", c.entry)
			if re, err := OpenSet(dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), want) {
				if err == nil {
					re.Close()
				}
				t.Fatalf("OpenSet = %v, want a refusal naming entry %d", err, c.entry)
			}
			if _, err := Build(append([]geom.Element(nil), els...), Config{Shards: 2, Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Build into the directory = %v, want a refusal naming entry %d", err, c.entry)
			}
			if after := snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused manifest's directory changed")
			}
		})
	}
}

// TestOpenRejectsElementCountMismatch: the v2 manifest cross-checks
// each shard's element count, so a shard file swapped for the wrong
// generation is caught at open instead of serving wrong results.
func TestOpenRejectsElementCountMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	els := randomElements(r, 800)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(els, Config{Shards: 2, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Entries[1].Elements += 7
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "manifest records") {
		t.Fatalf("open with mismatched element count: %v, want corruption error", err)
	}

	// Likewise a shard file whose superblock claims page runs the file
	// does not hold: refused at open, on both pagers, not looped over.
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, m.Entries[1].File), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	const objectPagesOffset = 136 // core's superblock layout: the u32 after objStart
	if _, err := f.WriteAt([]byte{0x00, 0xc2, 0xeb, 0x0b}, st.Size()-storage.PageSize+objectPagesOffset); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		if _, err := OpenSet(dir, OpenOptions{Mmap: mmap}); err == nil || !strings.Contains(err.Error(), "corrupt superblock") {
			t.Fatalf("open (mmap=%v) with 2e8 claimed object pages: %v, want a corrupt-superblock error", mmap, err)
		}
	}
}
