package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/shard"
	"flat/internal/storage"
)

// The leaf probes time single calls into storage, rtree and the shard
// set's open, NN and staging paths. They take their inputs from the
// workload's data but are defined the same way on every workload: the
// staged delta they run over is always mixed_rw's pre-timing delta
// (base/20 inserts, base/100 deletes), staged onto a copy of the clean
// index, so the numbers compare across workloads and runs.

const (
	probeReps   = 5   // repeats of a whole-pass probe; the median is kept
	probeWrites = 256 // writes timed one by one
	probePages  = 512 // object pages the codec probe decodes
)

// leafResult holds the probes' raw numbers; perLayerMetrics names them.
type leafResult struct {
	poolHitNs, poolMissMmapNs, poolMissFileNs float64
	poolBusy                                  time.Duration // reading every page the core rung read, once, warm
	codecBusy                                 time.Duration // decoding every object page among them, once
	examined                                  int           // elements on those pages
	codecV1Ns, codecV2Ns                      float64       // per element
	walAppendUs, walSyncUs, walBytes          float64
	insertUs, probeUs, nnUs                   float64 // rtree delta tree
	shardNNUs, stageUs                        float64
	openMs, openReplayMs                      float64
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) (string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	v := make([]float64, reps)
	for i := range v {
		var err error
		if v[i], err = f(); err != nil {
			return 0, err
		}
	}
	return median(v), nil
}

// probeLeaves runs the probes that need the pages the core rung read:
// the pool's hit and miss paths and the object-page codec. set is the
// core rung's, memory-mapped and warm.
func (l *ladder) probeLeaves(set *shard.Set) error {
	if len(l.pageIDs) == 0 {
		return fmt.Errorf("core rung read no pages")
	}
	pool := set.Pool()
	distinct := make([]storage.PageID, 0, len(l.pageIDs))
	seen := make(map[storage.PageID]bool)
	for _, id := range l.pageIDs {
		if !seen[id] {
			seen[id] = true
			distinct = append(distinct, id)
		}
	}
	readAll := func(p *storage.ConcurrentPool, ids []storage.PageID) (float64, error) {
		t0 := time.Now()
		//lint:ignore ctxcrawl a timed probe of the pool itself; a context check per read would be what it measures
		for _, id := range ids {
			if _, err := p.ReadInto(id, nil); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(ids)), nil
	}
	var err error
	if l.leaf.poolHitNs, err = medianOf(probeReps, func() (float64, error) { return readAll(pool, l.pageIDs) }); err != nil {
		return err
	}
	l.leaf.poolBusy = time.Duration(l.leaf.poolHitNs * float64(len(l.pageIDs)))
	missNs := func(p *storage.ConcurrentPool) (float64, error) {
		return medianOf(probeReps, func() (float64, error) {
			p.DropFrames()
			return readAll(p, distinct)
		})
	}
	if l.leaf.poolMissMmapNs, err = missNs(pool); err != nil {
		return err
	}
	// The file pager's miss path needs a set opened without mmap. It
	// reads the same directory; nothing writes to it here.
	files, err := shard.OpenSet(l.dir, shard.OpenOptions{})
	if err != nil {
		return err
	}
	l.leaf.poolMissFileNs, err = missNs(files.Pool())
	files.Close()
	if err != nil {
		return err
	}

	// Codec: decode every object page the timed core pass read, in the
	// order it read them — the decode work one replay of the sequence
	// does — then format against format on the same elements.
	var pages [][]byte
	//lint:ignore ctxcrawl collects warm frames for the codec probe; nothing to cancel
	for _, id := range l.pageIDs {
		if pool.Pager().CategoryOf(id) != storage.CatObject {
			continue
		}
		page, err := pool.ReadInto(id, nil)
		if err != nil {
			return err
		}
		pages = append(pages, page)
	}
	if len(pages) == 0 {
		return fmt.Errorf("core rung read no object pages")
	}
	var buf []geom.Element
	decodeAll := func(pages [][]byte) (time.Duration, int, error) {
		n := 0
		t0 := time.Now()
		for _, page := range pages {
			var err error
			if buf, err = storage.DecodeObjectPageInto(page, buf[:0]); err != nil {
				return 0, 0, err
			}
			n += len(buf)
		}
		return time.Since(t0), n, nil
	}
	busy, err := medianOf(probeReps, func() (float64, error) {
		d, n, err := decodeAll(pages)
		l.leaf.examined = n
		return float64(d), err
	})
	if err != nil {
		return err
	}
	l.leaf.codecBusy = time.Duration(busy)

	var els []geom.Element
	for _, page := range pages[:min(len(pages), probePages)] {
		if els, err = storage.DecodeObjectPageInto(page, els); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		format storage.PageFormat
		ns     *float64
	}{{storage.PageFormatV1, &l.leaf.codecV1Ns}, {storage.PageFormatV2, &l.leaf.codecV2Ns}} {
		var encoded [][]byte
		per := storage.ObjectPageCapacity(f.format)
		for at := 0; at < len(els); at += per {
			page := make([]byte, storage.PageSize)
			if err := storage.EncodeObjectPage(page, f.format, els[at:min(at+per, len(els))]); err != nil {
				return err
			}
			encoded = append(encoded, page)
		}
		if *f.ns, err = medianOf(probeReps, func() (float64, error) {
			d, n, err := decodeAll(encoded)
			return float64(d.Nanoseconds()) / float64(n), err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeDelta runs the probes over the standard staged delta: set open
// with and without a log to replay, NN and staging at the shard layer,
// the write-ahead log, and the delta R-tree. clean is an index
// directory with an empty log; staged is the same index with the
// standard delta in its log.
func (l *ladder) probeDelta(clean, staged string) error {
	ctx := context.Background()
	d := l.r.d
	openMs := func(dir string) (float64, error) {
		return medianOf(probeReps, func() (float64, error) {
			t0 := time.Now()
			set, err := shard.OpenSet(dir, shard.OpenOptions{Mmap: true, WAL: true})
			if err != nil {
				return 0, err
			}
			ms := float64(time.Since(t0).Microseconds()) / 1e3
			return ms, set.Close()
		})
	}
	var err error
	if l.leaf.openMs, err = openMs(clean); err != nil {
		return err
	}
	replay, err := openMs(staged)
	if err != nil {
		return err
	}
	l.leaf.openReplayMs = replay - l.leaf.openMs

	// shard: NN beside a delta snapshot, then single staged writes.
	dir, err := copyDir(staged, filepath.Join(l.cfg.tmp, "probe-shard"))
	if err != nil {
		return err
	}
	set, err := shard.OpenSet(dir, shard.OpenOptions{Mmap: true, WAL: true})
	if err != nil {
		return err
	}
	defer set.Close()
	nnAll := func() (float64, error) {
		t0 := time.Now()
		for _, p := range d.points {
			k := 0
			if _, err := set.NNQuery(ctx, p, nnK, func(geom.Element, float64) bool { k++; return k < nnK }); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(len(d.points)), nil
	}
	if _, err := nnAll(); err != nil { // warm
		return err
	}
	if l.leaf.shardNNUs, err = medianOf(probeReps, nnAll); err != nil {
		return err
	}
	writes := d.writes[:min(len(d.writes), probeWrites)]
	t0 := time.Now()
	for _, w := range writes {
		if w.kind == opInsert {
			err = set.StageInsert(w.el)
		} else {
			err = set.StageDelete(w.el.ID, w.el.Box)
		}
		if err == nil {
			err = set.Flush()
		}
		if err != nil {
			return err
		}
	}
	l.leaf.stageUs = float64(time.Since(t0).Microseconds()) / float64(len(writes))

	// storage: the same records appended to and synced on a scratch log.
	wal, err := storage.CreateWAL(filepath.Join(l.cfg.tmp, "probe.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	size0 := wal.Size()
	appendUs, syncUs := make([]float64, len(writes)), make([]float64, len(writes))
	for i, w := range writes {
		rec := storage.WALRecord{Op: storage.WALInsert, Seq: uint64(i + 1), ID: w.el.ID, Box: w.el.Box}
		if w.kind == opDelete {
			rec.Op = storage.WALDelete
		}
		t0 := time.Now()
		if err := wal.Append(rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := wal.Sync(); err != nil {
			return err
		}
		appendUs[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		syncUs[i] = float64(time.Since(t1).Nanoseconds()) / 1e3
	}
	l.leaf.walAppendUs, l.leaf.walSyncUs = median(appendUs), median(syncUs)
	l.leaf.walBytes = float64(wal.Size()-size0) / float64(len(writes))

	// rtree: one shard's share of the staged inserts in a delta tree
	// built the way shard builds it, then probed with the SN boxes and
	// the NN points.
	share := d.stagedIns[:max(len(d.stagedIns)/shards, 1)]
	tree := rtree.NewDynTree(storage.NewConcurrentPool(storage.NewMemPager(), 0), rtree.Config{})
	t0 = time.Now()
	for i, e := range share {
		if err := tree.Insert(geom.Element{ID: uint64(i), Box: e.Box}); err != nil {
			return err
		}
	}
	l.leaf.insertUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(share))
	view, err := tree.View()
	if err != nil {
		return err
	}
	if l.leaf.probeUs, err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		for _, q := range d.sn {
			if _, err := view.RangeQuery(q); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(d.sn)), nil
	}); err != nil {
		return err
	}
	l.leaf.nnUs, err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		for _, p := range d.points {
			k := 0
			if err := view.NN(p, func(geom.Element, float64) bool { k++; return k < nnK }); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(d.points)), nil
	})
	return err
}
