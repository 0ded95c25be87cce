package oocore

import (
	"encoding/binary"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// The manifest is the durable root of a store: which spill files of
// each shard it holds are current — a base image and the delta, if any,
// that patches it — plus everything about the solve that is
// not per-position state (wave counts, per-shard frontiers, work counters,
// parked cross-block runs). An out-of-core solve's store holds every
// shard of its partition, one per block, and its manifest is written
// atomically after a spillAllDirty barrier, so the pair (manifest, pinned
// block files) is always a consistent wave boundary: a crash mid-wave
// leaves newer unpinned generations behind, and resume simply ignores
// them. A TCP-mesh node's checkpoint is the same store holding one shard,
// its own (SaveShard).
//
// Layout (little-endian), crc64/ECMA over everything, stored in the
// trailing 8 bytes:
//
//	magic "RAOM", version u32
//	size u64, kernel u8, shards u32, group u64  (the partition)
//	entries u32, waves u64, wave u64
//	spill counters (10 × u64, SpillCounters field order)
//	per entry, in increasing shard order:
//	  shard u32, base u64, delta u64 (0 = none)
//	  worker stats (9 × u64, WorkerStats field order)
//	  queue, next: count u64, then count × u64 local indices
//	  pending: count u64, then count × (base u64, count u32, value u16)
//
// waves counts productive waves; wave is the mesh wave about to run (0
// out of core). v2 added the spill counters, v3 dropped the loop-set list
// for the loop flag in the spilled state, v4 replaced (blockLen, blocks)
// with the partition and per-entry shard ids, v5 pins a delta beside
// each base and counts deltas and compactions. v4 is still read — its
// 8 counters lack the last two, its entries pin one gen, a base — so a
// store paused by a build before deltas resumes. v2 and v3 are refused:
// a v2 store's stale counters on cutoff-final positions would read as
// loop flags, and a v3 header has no partition to read.
const (
	// ManifestName is the manifest's file name in a store directory; a
	// directory without one holds no committed store.
	ManifestName    = "oocore.manifest"
	manifestMagic   = "RAOM"
	manifestVersion = 5
	// manifestV4 is the oldest version read.
	manifestV4 = 4
)

type manifestBlock struct {
	shard       int
	base, delta uint64
	stats       ra.WorkerStats
	queue, next []uint64
	pending     []ra.UpdateRun
}

type manifest struct {
	// version is the layout the manifest was read in, and is written in;
	// 0 writes manifestVersion.
	version  uint32
	size     uint64
	kernel   ra.Kernel
	shards   uint32
	group    uint64
	waves    uint64
	wave     uint64
	counters SpillCounters
	blocks   []manifestBlock
}

func counterWords(c *SpillCounters) [10]uint64 {
	return [10]uint64{
		c.Spilled, c.Deltas, c.Compactions, c.Reloaded, c.SpillBytesWritten, c.SpillBytesRead,
		c.Checkpoints, c.PrefetchIssued, c.PrefetchHits, c.WriteStalls,
	}
}

func countersFromWords(w [10]uint64) SpillCounters {
	return SpillCounters{
		Spilled: w[0], Deltas: w[1], Compactions: w[2], Reloaded: w[3], SpillBytesWritten: w[4], SpillBytesRead: w[5],
		Checkpoints: w[6], PrefetchIssued: w[7], PrefetchHits: w[8], WriteStalls: w[9],
	}
}

// v4Counters are the counter words of a version 4 manifest, which had no
// Deltas and Compactions.
var v4Counters = []int{0, 3, 4, 5, 6, 7, 8, 9}

// writeManifest commits a store: it writes the manifest atomically and
// durably, then syncs the directory, so a crash at any instant leaves
// either the previous manifest or the complete new one, and once it
// returns the new one survives a power loss.
func writeManifest(path string, mf *manifest) error {
	err := db.WriteFileAtomic(path, true, func(out io.Writer) error {
		_, err := out.Write(encodeManifest(mf))
		return err
	})
	if err != nil {
		return err
	}
	return db.SyncDir(filepath.Dir(path))
}

// encodeManifest lays out the manifest image, checksum included.
func encodeManifest(mf *manifest) []byte {
	le := binary.LittleEndian
	version := mf.version
	if version == 0 {
		version = manifestVersion
	}
	buf := le.AppendUint32(append(make([]byte, 0, 256), manifestMagic...), version)
	buf = le.AppendUint64(buf, mf.size)
	buf = append(buf, byte(mf.kernel))
	buf = le.AppendUint32(buf, mf.shards)
	buf = le.AppendUint64(buf, mf.group)
	buf = le.AppendUint32(buf, uint32(len(mf.blocks)))
	buf = le.AppendUint64(buf, mf.waves)
	buf = le.AppendUint64(buf, mf.wave)
	words := counterWords(&mf.counters)
	if version == manifestV4 {
		for _, k := range v4Counters {
			buf = le.AppendUint64(buf, words[k])
		}
	} else {
		for _, w := range words {
			buf = le.AppendUint64(buf, w)
		}
	}
	for i := range mf.blocks {
		mb := &mf.blocks[i]
		buf = le.AppendUint32(buf, uint32(mb.shard))
		buf = le.AppendUint64(buf, mb.base)
		if version != manifestV4 {
			buf = le.AppendUint64(buf, mb.delta)
		}
		for _, w := range mb.stats.Words() {
			buf = le.AppendUint64(buf, w)
		}
		for _, q := range [][]uint64{mb.queue, mb.next} {
			buf = le.AppendUint64(buf, uint64(len(q)))
			for _, l := range q {
				buf = le.AppendUint64(buf, l)
			}
		}
		buf = le.AppendUint64(buf, uint64(len(mb.pending)))
		for _, run := range mb.pending {
			buf = le.AppendUint64(buf, run.Base)
			buf = le.AppendUint32(buf, run.Count)
			buf = le.AppendUint16(buf, uint16(run.Value))
		}
	}
	return le.AppendUint64(buf, crc64.Checksum(buf, db.CRC64Table))
}

// readManifest loads and fully validates a manifest. A missing file
// returns an error satisfying errors.Is(err, os.ErrNotExist); any
// malformed content returns a *CorruptSpillError.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(path, data)
}

// decodeManifest validates a manifest image; path only names it in errors.
func decodeManifest(path string, data []byte) (*manifest, error) {
	if len(data) < 8 {
		return nil, corrupt(path, "truncated: %d bytes", len(data))
	}
	body := data[:len(data)-8]
	if got, want := crc64.Checksum(body, db.CRC64Table), binary.LittleEndian.Uint64(data[len(data)-8:]); got != want {
		return nil, corrupt(path, "checksum mismatch: computed %016x, stored %016x", got, want)
	}
	r := &byteReader{data: body, path: path}
	if string(r.bytes(4)) != manifestMagic {
		return nil, corrupt(path, "bad magic")
	}
	mf := &manifest{version: r.u32()}
	if r.err == nil && mf.version != manifestVersion && mf.version != manifestV4 {
		return nil, corrupt(path, "unsupported version %d (this build reads versions %d and %d)", mf.version, manifestV4, manifestVersion)
	}
	v4 := mf.version == manifestV4
	mf.size = r.u64()
	mf.kernel = ra.Kernel(r.u8())
	mf.shards = r.u32()
	mf.group = r.u64()
	entries := r.u32()
	mf.waves = r.u64()
	mf.wave = r.u64()
	var cw [10]uint64
	if v4 {
		for _, k := range v4Counters {
			cw[k] = r.u64()
		}
	} else {
		for i := range cw {
			cw[i] = r.u64()
		}
	}
	mf.counters = countersFromWords(cw)
	if r.err != nil {
		return nil, r.err
	}
	if mf.kernel != ra.KernelScalar && mf.kernel != ra.KernelSWAR {
		return nil, corrupt(path, "unknown kernel %d", mf.kernel)
	}
	if mf.group == 0 {
		return nil, corrupt(path, "zero partition group")
	}
	if entries == 0 || entries > mf.shards {
		return nil, corrupt(path, "implausible entry count %d for %d shards", entries, mf.shards)
	}
	const minEntryBytes = 4 + 8*(1+9+3) // shard, base, stats, three empty lists
	if uint64(entries) > uint64(len(r.data)-r.off)/minEntryBytes {
		return nil, corrupt(path, "%d entries exceed the remaining %d bytes", entries, len(r.data)-r.off)
	}
	mf.blocks = make([]manifestBlock, entries)
	for i := range mf.blocks {
		mb := &mf.blocks[i]
		shard := r.u32()
		if r.err == nil && (shard >= mf.shards || i > 0 && int(shard) <= mf.blocks[i-1].shard) {
			return nil, corrupt(path, "entry %d names shard %d (of %d) out of order", i, shard, mf.shards)
		}
		mb.shard = int(shard)
		mb.base = r.u64()
		if !v4 {
			mb.delta = r.u64()
		}
		var words [9]uint64
		for j := range words {
			words[j] = r.u64()
		}
		mb.stats = ra.StatsFromWords(words)
		mb.queue = r.u64s()
		mb.next = r.u64s()
		mb.pending = r.runs()
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.data) != r.off {
		return nil, corrupt(path, "%d trailing bytes", len(r.data)-r.off)
	}
	return mf, nil
}

// byteReader cursors over a manifest body with sticky errors, so decode
// reads like straight-line code and any overrun or implausible length
// surfaces as one CorruptSpillError.
type byteReader struct {
	data []byte
	off  int
	path string
	err  error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(r.path, format, args...)
	}
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// u64s reads a length-prefixed index list. The length is bounded by the
// bytes actually remaining, so a garbled length cannot provoke an
// arbitrary allocation.
func (r *byteReader) u64s() []uint64 {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off)/8 {
		r.fail("list of %d entries exceeds remaining %d bytes", n, len(r.data)-r.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *byteReader) runs() []ra.UpdateRun {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	const runBytes = 14
	if n > uint64(len(r.data)-r.off)/runBytes {
		r.fail("run list of %d entries exceeds remaining %d bytes", n, len(r.data)-r.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]ra.UpdateRun, n)
	for i := range out {
		b := r.bytes(runBytes)
		if b == nil {
			return nil
		}
		out[i] = ra.UpdateRun{
			Base:  binary.LittleEndian.Uint64(b),
			Count: binary.LittleEndian.Uint32(b[8:]),
			Value: game.Value(binary.LittleEndian.Uint16(b[12:])),
		}
	}
	return out
}
