package oocore

import (
	"encoding/binary"
	"hash/crc64"
	"io"
	"os"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// The manifest is the durable root of an out-of-core solve: which spill
// generation of every block is current, plus everything about the solve
// that is not per-position state (wave count, per-block frontiers, work
// counters, parked cross-block runs). It is written atomically after a
// spillAllDirty barrier, so the pair (manifest, pinned block files) is
// always a consistent wave boundary: a crash mid-wave leaves newer
// unpinned generations behind, and resume simply ignores them.
//
// Layout (little-endian), crc64/ECMA over everything, stored in the
// trailing 8 bytes:
//
//	magic "RAOM", version u32
//	size u64, kernel u8, blockLen u64, numBlocks u32, waves u64
//	spill counters (8 × u64, manifestCounters field order) [v2]
//	per block:
//	  gen u64
//	  worker stats (9 × u64, WorkerStats field order)
//	  queue, next: count u64, then count × u64 local indices
//	  pending: count u64, then count × (base u64, count u32, value u16)
//
// v2 added the spill-counter words so a resumed solve reports cumulative
// I/O traffic instead of restarting its counters from zero. v3 dropped the
// loop-set list for the loop flag in the spilled state; v2 is refused, as
// its stale counters on cutoff-final positions would read as loop flags.
const (
	manifestName    = "oocore.manifest"
	manifestMagic   = "RAOM"
	manifestVersion = 3
)

type manifestBlock struct {
	gen         uint64
	stats       ra.WorkerStats
	queue, next []uint64
	pending     []ra.UpdateRun
}

// manifestCounters is the cumulative-I/O slice of SpillStats a resumed
// solve continues counting from.
type manifestCounters struct {
	spilled, reloaded            uint64
	bytesWritten, bytesRead      uint64
	checkpoints                  uint64
	prefetchIssued, prefetchHits uint64
	writeStalls                  uint64
}

type manifest struct {
	size     uint64
	kernel   ra.Kernel
	blockLen uint64
	waves    uint64
	counters manifestCounters
	blocks   []manifestBlock
}

func counterWords(c *manifestCounters) [8]uint64 {
	return [8]uint64{
		c.spilled, c.reloaded, c.bytesWritten, c.bytesRead,
		c.checkpoints, c.prefetchIssued, c.prefetchHits, c.writeStalls,
	}
}

func countersFromWords(w [8]uint64) manifestCounters {
	return manifestCounters{
		spilled: w[0], reloaded: w[1], bytesWritten: w[2], bytesRead: w[3],
		checkpoints: w[4], prefetchIssued: w[5], prefetchHits: w[6], writeStalls: w[7],
	}
}

// writeManifest writes the manifest atomically: crash-at-any-instant
// leaves either the previous manifest or the complete new one.
func writeManifest(path string, mf *manifest) error {
	return ra.WriteFileAtomic(path, func(out io.Writer) error {
		_, err := out.Write(encodeManifest(mf))
		return err
	})
}

// encodeManifest lays out the manifest image, checksum included.
func encodeManifest(mf *manifest) []byte {
	buf := append(make([]byte, 0, 256), manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, mf.size)
	buf = append(buf, byte(mf.kernel))
	buf = binary.LittleEndian.AppendUint64(buf, mf.blockLen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mf.blocks)))
	buf = binary.LittleEndian.AppendUint64(buf, mf.waves)
	for _, w := range counterWords(&mf.counters) {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for i := range mf.blocks {
		mb := &mf.blocks[i]
		buf = binary.LittleEndian.AppendUint64(buf, mb.gen)
		for _, w := range mb.stats.Words() {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		for _, q := range [][]uint64{mb.queue, mb.next} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(q)))
			for _, l := range q {
				buf = binary.LittleEndian.AppendUint64(buf, l)
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mb.pending)))
		for _, run := range mb.pending {
			buf = binary.LittleEndian.AppendUint64(buf, run.Base)
			buf = binary.LittleEndian.AppendUint32(buf, run.Count)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(run.Value))
		}
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTab))
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
	if got, want := crc64.Checksum(body, crcTab), binary.LittleEndian.Uint64(data[len(data)-8:]); got != want {
		return nil, corrupt(path, "checksum mismatch: computed %016x, stored %016x", got, want)
	}
	r := &byteReader{data: body, path: path}
	if string(r.bytes(4)) != manifestMagic {
		return nil, corrupt(path, "bad magic")
	}
	if v := r.u32(); r.err == nil && v != manifestVersion {
		return nil, corrupt(path, "unsupported version %d", v)
	}
	mf := &manifest{}
	mf.size = r.u64()
	mf.kernel = ra.Kernel(r.u8())
	mf.blockLen = r.u64()
	nb := r.u32()
	mf.waves = r.u64()
	var cw [8]uint64
	for i := range cw {
		cw[i] = r.u64()
	}
	mf.counters = countersFromWords(cw)
	if r.err != nil {
		return nil, r.err
	}
	if mf.kernel != ra.KernelScalar && mf.kernel != ra.KernelSWAR {
		return nil, corrupt(path, "unknown kernel %d", mf.kernel)
	}
	if mf.blockLen == 0 {
		return nil, corrupt(path, "zero block length")
	}
	if nb == 0 || uint64(nb) > (mf.size+mf.blockLen-1)/mf.blockLen+1 {
		return nil, corrupt(path, "implausible block count %d for size %d", nb, mf.size)
	}
	const minBlockBytes = 8 * (1 + 9 + 3) // gen, stats, three empty lists
	if uint64(nb) > uint64(len(r.data)-r.off)/minBlockBytes {
		return nil, corrupt(path, "%d blocks exceed the remaining %d bytes", nb, len(r.data)-r.off)
	}
	mf.blocks = make([]manifestBlock, nb)
	for i := range mf.blocks {
		mb := &mf.blocks[i]
		mb.gen = r.u64()
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
