package oocore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"strings"

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

var crcTab = crc64.MakeTable(crc64.ECMA)

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
	crc := crc64.Checksum(dst[head:], crcTab)
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
	if got, want := crc64.Checksum(data[:body], crcTab), binary.LittleEndian.Uint64(data[body:]); got != want {
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
// Block files are generation-numbered: rewriting block b writes
// generation gen+1 atomically and only then deletes the previous
// generation — and never the generation the last durable manifest pins —
// so a crash at any instant leaves every manifest-referenced file intact.
type spillStore struct {
	dir string

	// failAfter > 0 makes the failAfter-th write (counting from 1) return
	// errSimulatedCrash without touching the file — the crash-recovery
	// tests' failpoint.
	failAfter int
	writes    int
}

func (s *spillStore) path(block int, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("block-%06d.g%d%s", block, gen, spillSuffix))
}

// write lands one generation of one block. A durable write fsyncs before
// the rename (the synchronous engine's per-spill behavior); a non-durable
// write skips the fsync, because write-behind generations only need to be
// on disk by the next manifest fence, where syncPinned makes whichever
// generation the manifest pins durable in one pass. A crash before that
// fence can leave a renamed-but-garbage file — harmless, since no
// manifest names it and resume reads only pinned generations.
func (s *spillStore) write(block int, gen uint64, data []byte, durable bool) error {
	s.writes++
	if s.failAfter > 0 && s.writes >= s.failAfter {
		return errSimulatedCrash
	}
	return writeFileAtomic(s.path(block, gen), durable, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeFileAtomic writes a file so that a crash at any point leaves
// either the complete new contents or the prior file untouched: the data
// goes to path+".tmp" and only then is renamed over path. A durable write
// fsyncs the data before the rename — a rename alone does not flush the
// page cache, so a crash after an unsynced rename can persist an empty or
// truncated file over a valid one. The rename itself is durable only once
// the directory is synced (syncDir). The temporary file is removed on
// every error path.
func writeFileAtomic(path string, durable bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// syncDir fsyncs directory dir, making the renames and removals done in
// it so far durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("oocore: syncing directory: %w", err)
	}
	return nil
}

// sync makes an already-written generation durable — the manifest
// fence's group fsync over the files it is about to pin.
func (s *spillStore) sync(block int, gen uint64) error {
	f, err := os.Open(s.path(block, gen))
	if err != nil {
		return fmt.Errorf("oocore: syncing spill block: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("oocore: syncing spill block: %w", err)
	}
	return f.Close()
}

func (s *spillStore) read(block int, gen uint64) ([]byte, string, error) {
	p := s.path(block, gen)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, p, fmt.Errorf("oocore: reading spill block: %w", err)
	}
	return data, p, nil
}

// remove deletes one generation of one block, best-effort: a leftover
// file is garbage a later clear sweeps up, never a correctness problem.
func (s *spillStore) remove(block int, gen uint64) {
	os.Remove(s.path(block, gen))
}

// clear deletes every spill block and the manifest — the end of a
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
		if strings.HasPrefix(name, "block-") && strings.HasSuffix(name, spillSuffix) || name == ManifestName {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("oocore: clearing spill store: %w", err)
			}
		}
	}
	return nil
}
