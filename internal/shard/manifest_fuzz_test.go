package shard

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// FuzzReadManifest feeds arbitrary bytes to the manifest decoder as a
// directory's MANIFEST.json. Neither readManifest nor nextGeneration may
// panic; a manifest that is accepted holds what every later open step
// relies on (1..MaxShards entries matching the recorded count, each
// entry naming the file its shard and generation derive, a base-name
// log, known page formats), survives a write → read round trip
// unchanged, and sends the next build to a generation past every one it
// records — together, the rule that keeps a committed index's files from
// being overwritten.
func FuzzReadManifest(f *testing.F) {
	// Seeds: the manifests real directories hold — K=1 v1; K=4 v2 with a
	// log, before and after a rebuild moved a shard to generation 1 —
	// plus a version-1 file, a truncated one and the largest generation.
	r := rand.New(rand.NewSource(11))
	seedDir := func(cfg Config, rebuild bool) []byte {
		cfg.Dir = filepath.Join(f.TempDir(), "ix")
		set, err := Build(randomElements(r, 600), cfg)
		if err != nil {
			f.Fatal(err)
		}
		defer set.Close()
		if rebuild {
			if err := set.StageInsert(geom.Element{ID: 1 << 40, Box: geom.CubeAt(geom.V(50, 50, 50), 1)}); err != nil {
				f.Fatal(err)
			}
			if _, err := set.Rebuild(); err != nil {
				f.Fatal(err)
			}
		}
		data, err := os.ReadFile(filepath.Join(cfg.Dir, manifestName))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	k1 := seedDir(Config{Shards: 1, PageFormat: storage.PageFormatV1}, false)
	f.Add(k1)
	f.Add(seedDir(Config{Shards: 4, PageFormat: storage.PageFormatV2}, false))
	f.Add(seedDir(Config{Shards: 4, PageFormat: storage.PageFormatV2}, true))
	f.Add(k1[:len(k1)/2])
	f.Add([]byte(`{"version":1,"shards":1,"entries":[{"file":"shard-0000.flat"}]}`))
	f.Add([]byte(`{"version":2,"shards":1,"entries":[{"file":"shard-0000.gen-18446744073709551615.flat","generation":18446744073709551615}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(dir)
		next, nextErr := nextGeneration(dir)
		if err != nil {
			if nextErr == nil {
				t.Fatalf("nextGeneration = %d over a manifest readManifest refuses: %v", next, err)
			}
			return
		}
		if len(m.Entries) < 1 || len(m.Entries) > storage.MaxShards || m.Shards != len(m.Entries) {
			t.Fatalf("accepted %d entries under a recorded count of %d", len(m.Entries), m.Shards)
		}
		for s, e := range m.Entries {
			if e.File != shardFileName(s, e.Generation) {
				t.Fatalf("accepted entry %d at generation %d with file name %q", s, e.Generation, e.File)
			}
			if e.PageFormat != 0 && !storage.PageFormat(e.PageFormat).Valid() {
				t.Fatalf("accepted entry %d with page format %d", s, e.PageFormat)
			}
			if nextErr == nil && next <= e.Generation {
				t.Fatalf("next build goes to generation %d, entry %d (%s) is at %d", next, s, e.File, e.Generation)
			}
		}
		if m.WAL != "" && m.WAL != filepath.Base(m.WAL) {
			t.Fatalf("accepted wal file name %q", m.WAL)
		}
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if again, err := readManifest(dir); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest changed across write and read (%v):\n%+v\nwas\n%+v", err, again, m)
		}
	})
}
