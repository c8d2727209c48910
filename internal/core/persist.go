package core

import (
	"errors"
	"fmt"

	"flat/internal/storage"
)

// Index persistence. A built index occupies three contiguous page runs
// on its pager (object pages, then metadata pages, then seed-internal
// pages — Build allocates them in that order with nothing interleaved),
// followed by one superblock page written by WriteSuper. OpenFrom reads
// the superblock back, refuses one whose runs do not end at its own
// page, restores the index header and re-tags the page categories so
// read accounting keeps working after a restart. A committed file is
// served through its read-only mapping (storage.MmapPager), which keeps
// categories in memory only.

// Superblock versions. Version 1 is the original layout and is still
// written — byte-identically — for every v1-format index, so files
// produced before page format v2 existed and new v1 builds stay
// interchangeable. Version 2 appends the object-page format tag; it is
// written only when the index actually uses a non-default page format,
// mirroring the shard manifest's v1/v2 arrangement.
const (
	superMagic     = 0x464c4154 // "FLAT"
	superVersionV1 = 1
	superVersionV2 = 2
	// superFormatOffset is the byte offset of the v2 page-format tag:
	// the sum of every version-1 field before it (magic, version, seed
	// root/height/fanout, world, bounds, count, objStart and the four
	// page/partition counters).
	superFormatOffset = 4 + 4 + 8 + 4 + 4 + 48 + 48 + 8 + 8 + 4 + 4 + 4 + 4
)

// ErrNoSuper is returned by OpenFrom when the page it is pointed at is
// not a superblock.
var ErrNoSuper = errors.New("core: pager does not contain a FLAT superblock")

// WriteSuper appends the superblock page describing the index layout.
// Call it once, after Build, before closing a disk-backed pager.
func (ix *Index) WriteSuper() error {
	id, err := ix.pool.Alloc(storage.CatUnknown)
	if err != nil {
		return err
	}
	version := uint32(superVersionV1)
	if ix.pageFormat != 0 && ix.pageFormat != storage.PageFormatV1 {
		version = superVersionV2
	}
	buf := make([]byte, storage.PageSize)
	w := storage.NewPageWriter(buf)
	w.PutU32(superMagic)
	w.PutU32(version)
	w.PutU64(uint64(ix.seedRoot))
	w.PutU32(uint32(ix.seedHeight))
	w.PutU32(uint32(ix.seedFanout))
	w.PutMBR(ix.world)
	w.PutMBR(ix.bounds)
	w.PutU64(uint64(ix.count))
	w.PutU64(uint64(ix.objStart))
	w.PutU32(uint32(ix.objectPages))
	w.PutU32(uint32(ix.metadataPages))
	w.PutU32(uint32(ix.seedInternal))
	w.PutU32(uint32(ix.build.Partitions))
	if version >= superVersionV2 {
		w.PutU8(uint8(ix.pageFormat))
	}
	if w.Overflow() {
		return fmt.Errorf("core: superblock overflow")
	}
	return ix.pool.Write(id, buf)
}

// OpenFrom restores an index from the superblock page WriteSuper wrote
// at id super; the supplied pool must wrap that pager, and the index
// reads through it. The location is explicit because a shard's file is
// read through the shard's view (storage.NewShardView), so its
// superblock, the file's last page, has a shard-tagged id. When the
// pager can re-register page categories (storage.CategorySetter, e.g.
// *storage.MmapPager), OpenFrom restores them (they are measurement
// metadata, not persisted per page).
func OpenFrom(pool storage.Pool, super storage.PageID) (*Index, error) {
	pager := pool.Pager()
	page, err := pool.ReadInto(super, nil)
	if err != nil {
		return nil, err
	}
	r := storage.NewPageReader(page)
	if r.U32() != superMagic {
		return nil, ErrNoSuper
	}
	v := r.U32()
	if v != superVersionV1 && v != superVersionV2 {
		return nil, fmt.Errorf("core: unsupported index version %d", v)
	}
	ix := &Index{pool: pool}
	ix.seedRoot = storage.PageID(r.U64())
	ix.seedHeight = int(r.U32())
	ix.seedFanout = int(r.U32())
	ix.world = r.MBR()
	ix.quant = storage.NewQuantizer(ix.world)
	ix.bounds = r.MBR()
	count := r.U64()
	ix.objStart = storage.PageID(r.U64())
	object, metadata, seed := uint64(r.U32()), uint64(r.U32()), uint64(r.U32())
	// Untrusted counts size the category loop below: the three runs must
	// end exactly at this page and fit the pager.
	runs := object + metadata + seed
	if object == 0 || ix.objStart > super || uint64(super-ix.objStart) != runs || runs >= pager.NumPages() {
		return nil, fmt.Errorf("core: corrupt superblock: %d+%d+%d pages from page %d do not end at superblock page %d of %d",
			object, metadata, seed, ix.objStart, super, pager.NumPages())
	}
	ix.objectPages, ix.metadataPages, ix.seedInternal = int(object), int(metadata), int(seed)
	partitions := uint64(r.U32())
	ix.pageFormat = storage.PageFormatV1
	if v >= superVersionV2 {
		ix.pageFormat = storage.PageFormat(r.U8())
		if !ix.pageFormat.Valid() {
			return nil, fmt.Errorf("core: unknown page format %d in superblock", uint8(ix.pageFormat))
		}
	}
	// The element count sizes Elements' slice: every object page is one
	// partition and holds at least one element and at most a full page.
	most := object * uint64(storage.ObjectPageCapacityForSpan(ix.pageFormat, 0))
	if partitions != object || count < object || count > most {
		return nil, fmt.Errorf("core: corrupt superblock: %d elements in %d partitions on %d object pages (at most %d)",
			count, partitions, object, most)
	}
	ix.count, ix.build.Partitions = int(count), int(partitions)

	if cs, ok := pager.(storage.CategorySetter); ok {
		id := ix.objStart
		tag := func(pages uint64, cat storage.Category) {
			for end := id + storage.PageID(pages); id < end; id++ {
				cs.SetCategory(id, cat)
			}
		}
		tag(object, storage.CatObject)
		tag(metadata, storage.CatMetadata)
		tag(seed, storage.CatSeedInternal)
	}
	return ix, nil
}
