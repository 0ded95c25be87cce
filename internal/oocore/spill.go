package oocore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/zdb"
)

// Spill-block file format, version 2 (little-endian). One file is one
// block's full per-position state — the symbol streams
// ra.Worker.PackState returns — compressed with the zdb table codecs:
//
//	off  0  magic "RASB"
//	off  4  version  u16  (2)
//	off  6  kernel   u8   (ra.KernelScalar or ra.KernelSWAR)
//	off  7  reserved u8   (zero)
//	off  8  block    u32  (block index within the rung)
//	off 12  count    u32  (positions in the block)
//	off 16  values codec u8, param u8; meta codec u8, param u8
//	off 20  values payload length u32
//	off 24  meta payload length u32
//	off 28  values payload, then meta payload
//	tail    crc64/ECMA over everything above, u64
//
// Which symbol a position is belongs to the kernel's layout and is
// defined at PackState; the format owns the header, the codec choice,
// the stream framing and the checksum. Under the SWAR kernel the values
// stream holds one 8-bit symbol per position and the meta stream is
// empty (raw codec, parameter 0, no payload). Under the scalar kernel
// both streams are 16 bits wide. Version 1 spilled both kernels as two
// 16-bit streams of other symbols; its files are refused, not read.
const (
	spillMagic     = "RASB"
	spillVersion   = 2
	spillHeaderLen = 28
	spillSuffix    = ".spill"
	// spillMaxCount bounds the position count a header may claim before
	// decode allocates, so a malformed file cannot provoke an arbitrary
	// allocation. Far above any real block length (see autoBlockLen).
	spillMaxCount = 1 << 22
	// scalarStreamBits is the width of both scalar streams and
	// swarStreamBits of the SWAR kernel's one stream.
	scalarStreamBits = 16
	swarStreamBits   = 8
)

// streamShape returns the width of a block's values stream and the
// number of symbols its meta stream holds, for a block of count
// positions spilled by kernel kern.
func streamShape(kern ra.Kernel, count int) (bits, metaCount int) {
	if kern == ra.KernelSWAR {
		return swarStreamBits, 0
	}
	return scalarStreamBits, count
}

// CorruptSpillError reports a spill block or manifest whose content is
// truncated, garbled, or inconsistent with the solve that tries to load
// it. It is a distinct type so callers can tell corruption (resume must
// start over) from I/O failure (retryable) with errors.As.
type CorruptSpillError struct {
	Path   string
	Reason string
}

func (e *CorruptSpillError) Error() string {
	return fmt.Sprintf("oocore: corrupt spill file %s: %s", e.Path, e.Reason)
}

func corrupt(path, format string, args ...any) error {
	return &CorruptSpillError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// encodeSpill appends a complete spill-block file image for one block's
// symbol streams, as PackState returns them, to dst and returns the
// grown slice.
func encodeSpill(dst []byte, block int, kern ra.Kernel, vals, meta []game.Value) ([]byte, error) {
	bits, metaCount := streamShape(kern, len(vals))
	if len(meta) != metaCount {
		return nil, fmt.Errorf("oocore: %v block %d has %d meta symbols for %d positions", kern, block, len(meta), len(vals))
	}
	head := len(dst)
	dst = append(dst, make([]byte, spillHeaderLen)...)
	dst, vCodec, vParam, err := zdb.EncodeStream(dst, vals, bits)
	if err != nil {
		return nil, fmt.Errorf("oocore: encoding block %d values: %w", block, err)
	}
	valsLen := len(dst) - head - spillHeaderLen
	dst, mCodec, mParam, err := zdb.EncodeStream(dst, meta, scalarStreamBits)
	if err != nil {
		return nil, fmt.Errorf("oocore: encoding block %d meta: %w", block, err)
	}
	metaLen := len(dst) - head - spillHeaderLen - valsLen
	h := dst[head:]
	copy(h, spillMagic)
	binary.LittleEndian.PutUint16(h[4:], spillVersion)
	h[6] = byte(kern)
	h[7] = 0
	binary.LittleEndian.PutUint32(h[8:], uint32(block))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(vals)))
	h[16], h[17], h[18], h[19] = vCodec, vParam, mCodec, mParam
	binary.LittleEndian.PutUint32(h[20:], uint32(valsLen))
	binary.LittleEndian.PutUint32(h[24:], uint32(metaLen))
	crc := crc64.Checksum(dst[head:], db.CRC64Table)
	return binary.LittleEndian.AppendUint64(dst, crc), nil
}

// decodeSpill parses one spill-block file image back into the symbol
// streams RestoreState takes, reusing vals/meta as scratch (grown when
// too small). Every malformed input — truncation, bad framing, checksum
// mismatch, codec garbage — returns a *CorruptSpillError; decode never
// panics.
func decodeSpill(path string, data []byte, vals, meta []game.Value) (block int, kern ra.Kernel, outVals, outMeta []game.Value, err error) {
	fail := func(e error) (int, ra.Kernel, []game.Value, []game.Value, error) {
		return 0, 0, vals, meta, e
	}
	if len(data) < spillHeaderLen+8 {
		return fail(corrupt(path, "truncated: %d bytes", len(data)))
	}
	if string(data[:4]) != spillMagic {
		return fail(corrupt(path, "bad magic %q", data[:4]))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != spillVersion {
		return fail(corrupt(path, "unsupported version %d", v))
	}
	kern = ra.Kernel(data[6])
	if kern != ra.KernelScalar && kern != ra.KernelSWAR {
		return fail(corrupt(path, "unknown kernel %d", data[6]))
	}
	block = int(binary.LittleEndian.Uint32(data[8:]))
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if count > spillMaxCount {
		return fail(corrupt(path, "position count %d exceeds the format bound %d", count, spillMaxCount))
	}
	valsLen := int64(binary.LittleEndian.Uint32(data[20:]))
	metaLen := int64(binary.LittleEndian.Uint32(data[24:]))
	if spillHeaderLen+valsLen+metaLen+8 != int64(len(data)) {
		return fail(corrupt(path, "payload framing (%d+%d) does not match file size %d", valsLen, metaLen, len(data)))
	}
	body := len(data) - 8
	if got, want := crc64.Checksum(data[:body], db.CRC64Table), binary.LittleEndian.Uint64(data[body:]); got != want {
		return fail(corrupt(path, "checksum mismatch: computed %016x, stored %016x", got, want))
	}
	bits, metaCount := streamShape(kern, count)
	vals = growValues(vals, count)
	meta = growValues(meta, metaCount)
	vp := data[spillHeaderLen : spillHeaderLen+int(valsLen)]
	mp := data[spillHeaderLen+int(valsLen) : body]
	if metaCount == 0 && (len(mp) != 0 || data[18] != 0 || data[19] != 0) {
		return fail(corrupt(path, "%v block carries a meta stream (codec %d, param %d, %d bytes)", kern, data[18], data[19], len(mp)))
	}
	if err := zdb.DecodeStream(vp, count, bits, data[16], data[17], vals); err != nil {
		return fail(corrupt(path, "values stream (%s): %v", zdb.CodecName(data[16]), err))
	}
	if err := zdb.DecodeStream(mp, metaCount, scalarStreamBits, data[18], data[19], meta); err != nil {
		return fail(corrupt(path, "meta stream (%s): %v", zdb.CodecName(data[18]), err))
	}
	return block, kern, vals, meta, nil
}

// Delta file format, version 1 (little-endian). A delta is one block's
// cumulative change since its base, a full image in the format above:
// every position whose symbol may differ from the base's, and its
// current symbols.
//
//	off  0  magic "RASD"
//	off  4  version  u16  (1)
//	off  6  kernel   u8
//	off  7  reserved u8   (zero)
//	off  8  block    u32
//	off 12  count    u32  (positions in the block, as in its base)
//	off 16  base     u64  (generation of the base image it patches)
//	off 24  base crc u64  (that image's CRC-64 tail)
//	off 32  runs     u32  (index runs)
//	off 36  changed  u32  (positions the runs cover)
//	off 40  values codec u8, param u8; meta codec u8, param u8
//	off 44  index length u32
//	off 48  values payload length u32
//	off 52  meta payload length u32
//	off 56  index: runs × (start uvarint, length uvarint), starts
//	        increasing, no two runs touching, every run inside count
//	        then values payload, then meta payload: changed symbols each,
//	        in index order, under the base's stream widths
//	tail    crc64/ECMA over everything above, u64
//
// The base crc pairs a delta with exactly one base: a delta read against
// any other image, of the same generation number or not, is refused.
const (
	deltaMagic     = "RASD"
	deltaVersion   = 1
	deltaHeaderLen = 56
	deltaSuffix    = ".delta"
)

// deltaRun is one run of an index: n positions from start, local to the
// block.
type deltaRun struct{ start, n uint32 }

// deltaImage is a decoded delta: its header, index and changed symbols.
type deltaImage struct {
	block            int
	kern             ra.Kernel
	count            int
	baseGen, baseCRC uint64
	runs             []deltaRun
	vals, meta       []game.Value // changed symbols, in index order
}

// indexBytes is the size of runs' index, the part of a delta's size the
// engine knows before anything is encoded.
func indexBytes(runs []deltaRun) int {
	n := 0
	for _, r := range runs {
		n += uvarintLen(uint64(r.start)) + uvarintLen(uint64(r.n))
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// gatherRuns appends the symbols of full at the index runs to dst.
func gatherRuns(dst, full []game.Value, runs []deltaRun) []game.Value {
	for _, r := range runs {
		dst = append(dst, full[r.start:r.start+r.n]...)
	}
	return dst
}

// patchRuns writes the changed symbols, in index order, over full at the
// index runs: a base's streams become the streams the delta describes.
func patchRuns(full, changed []game.Value, runs []deltaRun) {
	for _, r := range runs {
		changed = changed[copy(full[r.start:r.start+r.n], changed):]
	}
}

// encodeDelta appends the complete delta image d describes to dst, its
// symbols coded like a base's streams; d.vals and d.meta are the changed
// symbols, in index order.
func encodeDelta(dst []byte, d *deltaImage) ([]byte, error) {
	changed := 0
	for _, r := range d.runs {
		changed += int(r.n)
	}
	bits, metaCount := streamShape(d.kern, changed)
	if len(d.vals) != changed || len(d.meta) != metaCount {
		return nil, fmt.Errorf("oocore: %v block %d delta has %d/%d symbols for %d changed positions", d.kern, d.block, len(d.vals), len(d.meta), changed)
	}
	head := len(dst)
	dst = append(dst, make([]byte, deltaHeaderLen)...)
	for _, r := range d.runs {
		dst = binary.AppendUvarint(dst, uint64(r.start))
		dst = binary.AppendUvarint(dst, uint64(r.n))
	}
	indexLen := len(dst) - head - deltaHeaderLen
	dst, vCodec, vParam, err := zdb.EncodeStream(dst, d.vals, bits)
	if err != nil {
		return nil, fmt.Errorf("oocore: encoding block %d delta values: %w", d.block, err)
	}
	valsLen := len(dst) - head - deltaHeaderLen - indexLen
	dst, mCodec, mParam, err := zdb.EncodeStream(dst, d.meta, scalarStreamBits)
	if err != nil {
		return nil, fmt.Errorf("oocore: encoding block %d delta meta: %w", d.block, err)
	}
	metaLen := len(dst) - head - deltaHeaderLen - indexLen - valsLen
	h := dst[head:]
	le := binary.LittleEndian
	copy(h, deltaMagic)
	le.PutUint16(h[4:], deltaVersion)
	h[6] = byte(d.kern)
	h[7] = 0
	le.PutUint32(h[8:], uint32(d.block))
	le.PutUint32(h[12:], uint32(d.count))
	le.PutUint64(h[16:], d.baseGen)
	le.PutUint64(h[24:], d.baseCRC)
	le.PutUint32(h[32:], uint32(len(d.runs)))
	le.PutUint32(h[36:], uint32(changed))
	h[40], h[41], h[42], h[43] = vCodec, vParam, mCodec, mParam
	le.PutUint32(h[44:], uint32(indexLen))
	le.PutUint32(h[48:], uint32(valsLen))
	le.PutUint32(h[52:], uint32(metaLen))
	crc := crc64.Checksum(dst[head:], db.CRC64Table)
	return le.AppendUint64(dst, crc), nil
}

// decodeDelta parses one delta image into d, reusing d's slices as
// scratch. Every malformed input — truncation, bad framing, checksum
// mismatch, an index that is unsorted, overlapping, touching or out of
// range, codec garbage, a SWAR symbol wider than a lane byte — returns a
// *CorruptSpillError; decode never panics. The pairing with a base is
// checked by applyDelta.
func decodeDelta(path string, data []byte, d *deltaImage) error {
	le := binary.LittleEndian
	if len(data) < deltaHeaderLen+8 {
		return corrupt(path, "truncated delta: %d bytes", len(data))
	}
	if string(data[:4]) != deltaMagic {
		return corrupt(path, "bad delta magic %q", data[:4])
	}
	if v := le.Uint16(data[4:]); v != deltaVersion {
		return corrupt(path, "unsupported delta version %d", v)
	}
	d.kern = ra.Kernel(data[6])
	if d.kern != ra.KernelScalar && d.kern != ra.KernelSWAR {
		return corrupt(path, "unknown kernel %d", data[6])
	}
	if data[7] != 0 {
		return corrupt(path, "reserved byte %d", data[7])
	}
	d.block = int(le.Uint32(data[8:]))
	d.count = int(le.Uint32(data[12:]))
	d.baseGen, d.baseCRC = le.Uint64(data[16:]), le.Uint64(data[24:])
	nruns, changed := int(le.Uint32(data[32:])), int(le.Uint32(data[36:]))
	if d.count > spillMaxCount || changed > d.count || nruns > changed {
		return corrupt(path, "delta of %d runs over %d of %d positions", nruns, changed, d.count)
	}
	indexLen, valsLen, metaLen := int64(le.Uint32(data[44:])), int64(le.Uint32(data[48:])), int64(le.Uint32(data[52:]))
	if deltaHeaderLen+indexLen+valsLen+metaLen+8 != int64(len(data)) {
		return corrupt(path, "delta framing (%d+%d+%d) does not match file size %d", indexLen, valsLen, metaLen, len(data))
	}
	body := len(data) - 8
	if got, want := crc64.Checksum(data[:body], db.CRC64Table), le.Uint64(data[body:]); got != want {
		return corrupt(path, "checksum mismatch: computed %016x, stored %016x", got, want)
	}
	index := data[deltaHeaderLen : deltaHeaderLen+int(indexLen)]
	d.runs = d.runs[:0]
	covered, end := 0, -1 // end: one past the previous run; -1 before the first
	for range nruns {
		start, k := binary.Uvarint(index)
		if k <= 0 {
			return corrupt(path, "delta index truncated at run %d", len(d.runs))
		}
		index = index[k:]
		n, k := binary.Uvarint(index)
		if k <= 0 {
			return corrupt(path, "delta index truncated at run %d", len(d.runs))
		}
		index = index[k:]
		switch {
		case n == 0:
			return corrupt(path, "delta index run %d is empty", len(d.runs))
		case start > uint64(d.count) || n > uint64(d.count)-start:
			return corrupt(path, "delta index run %d [%d,+%d) lies outside the block's %d positions", len(d.runs), start, n, d.count)
		case int(start) <= end:
			return corrupt(path, "delta index run %d at %d is unsorted, overlaps or touches the run ending at %d", len(d.runs), start, end)
		}
		d.runs = append(d.runs, deltaRun{uint32(start), uint32(n)})
		end = int(start + n)
		covered += int(n)
	}
	if len(index) != 0 || covered != changed {
		return corrupt(path, "delta index covers %d positions in %d runs with %d bytes left, header says %d", covered, nruns, len(index), changed)
	}
	bits, metaCount := streamShape(d.kern, changed)
	d.vals = growValues(d.vals, changed)
	d.meta = growValues(d.meta, metaCount)
	off := deltaHeaderLen + int(indexLen)
	vp := data[off : off+int(valsLen)]
	mp := data[off+int(valsLen) : body]
	if metaCount == 0 && (len(mp) != 0 || data[42] != 0 || data[43] != 0) {
		return corrupt(path, "%v delta carries a meta stream (codec %d, param %d, %d bytes)", d.kern, data[42], data[43], len(mp))
	}
	if err := zdb.DecodeStream(vp, changed, bits, data[40], data[41], d.vals); err != nil {
		return corrupt(path, "delta values stream (%s): %v", zdb.CodecName(data[40]), err)
	}
	if err := zdb.DecodeStream(mp, metaCount, scalarStreamBits, data[42], data[43], d.meta); err != nil {
		return corrupt(path, "delta meta stream (%s): %v", zdb.CodecName(data[42]), err)
	}
	if bits == swarStreamBits {
		for i, v := range d.vals {
			if v > 0xFF {
				return corrupt(path, "delta symbol %d is %#x, wider than a lane byte", i, v)
			}
		}
	}
	return nil
}

// applyDelta checks that delta image d, read from path, was written
// against the base image of generation baseGen — block baseBlock under
// kernel baseKern, decoded to vals and meta, its file ending in baseCRC —
// and patches those streams.
func applyDelta(path string, d *deltaImage, baseBlock int, baseKern ra.Kernel, baseGen, baseCRC uint64, vals, meta []game.Value) error {
	switch {
	case d.block != baseBlock || d.kern != baseKern || d.count != len(vals):
		return corrupt(path, "delta for %v block %d of %d positions, paired with a %v base of block %d with %d", d.kern, d.block, d.count, baseKern, baseBlock, len(vals))
	case d.baseGen != baseGen || d.baseCRC != baseCRC:
		return corrupt(path, "delta patches base generation %d (crc %016x), paired with generation %d (crc %016x)", d.baseGen, d.baseCRC, baseGen, baseCRC)
	}
	patchRuns(vals, d.vals, d.runs)
	if len(meta) > 0 {
		patchRuns(meta, d.meta, d.runs)
	}
	return nil
}

// growValues returns a slice of exactly n entries, reusing s's backing
// array when it is large enough.
func growValues(s []game.Value, n int) []game.Value {
	if cap(s) < n {
		return make([]game.Value, n)
	}
	return s[:n]
}

// errSimulatedCrash is what the spill store's test failpoint injects in
// place of a write: the solve dies exactly as if the machine lost power
// mid-wave, leaving the directory for a resume to pick up.
var errSimulatedCrash = errors.New("oocore: simulated crash (test failpoint)")

// spillStore owns the on-disk block files under the engine directory.
// Block files are generation-numbered, one number sequence per block
// shared by its base images (spillSuffix) and deltas (deltaSuffix):
// rewriting block b writes generation gen+1 under its fresh name and only
// then deletes what it supersedes — and never a file the last durable
// manifest pins — so a crash at any instant leaves every
// manifest-referenced file intact.
type spillStore struct {
	dir string

	// failAfter > 0 makes the failAfter-th spill write (counting from 1)
	// return errSimulatedCrash without touching the file — the
	// crash-recovery tests' failpoint. With failAfterKind set it instead
	// fails the first write, spill file or manifest, after the
	// failAfter-th write of that kind has landed.
	failAfter     int
	failAfterKind spillKind
	writes        int
	kindWrites    int
}

// spillKind is what one spill write lands: a block's first base image, a
// delta against its base, or a compaction — a new base replacing a base
// and its delta.
type spillKind uint8

const (
	kindBase spillKind = iota + 1
	kindDelta
	kindCompaction
)

// failpoint is the crash-recovery tests' hook, consulted before every
// spill write and, with spill false, before every manifest write. Spill
// writes run on the writer goroutine and manifest writes on the engine
// thread behind quiesce, so the counters are never touched at once.
func (s *spillStore) failpoint(spill bool) error {
	if spill {
		s.writes++
	}
	if s.failAfter > 0 && (s.failAfterKind == 0 && spill && s.writes >= s.failAfter ||
		s.failAfterKind != 0 && s.kindWrites >= s.failAfter) {
		return errSimulatedCrash
	}
	return nil
}

func (s *spillStore) path(block int, gen uint64, delta bool) string {
	suffix := spillSuffix
	if delta {
		suffix = deltaSuffix
	}
	return filepath.Join(s.dir, fmt.Sprintf("block-%06d.g%d%s", block, gen, suffix))
}

// isStoreFile reports whether name is a block file of a store: a base
// image or a delta.
func isStoreFile(name string) bool {
	return strings.HasPrefix(name, "block-") && (strings.HasSuffix(name, spillSuffix) || strings.HasSuffix(name, deltaSuffix))
}

// write lands one generation of one block, in place under its own name.
// Generations only grow and no manifest names one before the fence that
// syncs it, so there is nothing to replace atomically: a crash mid-write
// leaves garbage at a name resume never reads (it reads only pinned
// generations), and a later write of that name truncates it. A durable
// write fsyncs the file (the synchronous engine's per-spill behavior); a
// non-durable write skips the fsync, because write-behind generations
// only need to be on disk by the next manifest fence, where syncPinned
// makes whichever files the manifest pins durable in one pass.
func (s *spillStore) write(block int, gen uint64, kind spillKind, data []byte, durable bool) error {
	if err := s.failpoint(true); err != nil {
		return err
	}
	path := s.path(block, gen, kind == kindDelta)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	if kind == s.failAfterKind {
		s.kindWrites++
	}
	return nil
}

// sync makes an already-written file durable — the manifest fence's
// group fsync over the files it is about to pin.
func (s *spillStore) sync(block int, gen uint64, delta bool) error {
	f, err := os.Open(s.path(block, gen, delta))
	if err != nil {
		return fmt.Errorf("oocore: syncing spill block: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("oocore: syncing spill block: %w", err)
	}
	return f.Close()
}

func (s *spillStore) read(block int, gen uint64, delta bool) ([]byte, string, error) {
	p := s.path(block, gen, delta)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, p, fmt.Errorf("oocore: reading spill block: %w", err)
	}
	return data, p, nil
}

// baseCRC returns the CRC-64 tail of a block's base image on disk, the
// sum a delta against it records.
func (s *spillStore) baseCRC(block int, gen uint64) (uint64, error) {
	f, err := os.Open(s.path(block, gen, false))
	if err != nil {
		return 0, fmt.Errorf("oocore: reading spill block checksum: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("oocore: reading spill block checksum: %w", err)
	}
	var tail [8]byte
	if _, err := f.ReadAt(tail[:], fi.Size()-8); err != nil {
		return 0, corrupt(f.Name(), "no checksum tail: %v", err)
	}
	return binary.LittleEndian.Uint64(tail[:]), nil
}

// remove deletes one file of one block, best-effort: a leftover file is
// garbage a later clear sweeps up, never a correctness problem.
func (s *spillStore) remove(block int, gen uint64, delta bool) {
	os.Remove(s.path(block, gen, delta))
}

// clear deletes every block file and the manifest — the end of a
// completed solve, or the caller starting over.
func (s *spillStore) clear() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("oocore: clearing spill store: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !ent.Type().IsRegular() {
			continue
		}
		if isStoreFile(name) || name == ManifestName {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("oocore: clearing spill store: %w", err)
			}
		}
	}
	return nil
}
