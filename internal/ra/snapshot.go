package ra

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"retrograde/internal/game"
)

// The paper's large runs took tens of hours; production builds need to
// survive restarts. State leaves a Worker one way only — PackState /
// RestoreState for the per-position streams, Frontier / SetFrontier for
// the queues, WorkerStats.Words for the counters. The out-of-core engine
// spreads those over its spill blocks and manifest; WriteSnapshot frames
// them as one self-checking stream for the TCP mesh's per-node
// checkpoints.

// ErrPaused is returned by a solve that stopped early because its
// StopAfterWaves budget was reached; the state left on disk continues the
// run.
var ErrPaused = errors.New("ra: analysis paused at a checkpoint")

// statsWordCount is the number of uint64 words WorkerStats serialises to.
const statsWordCount = 9

// Words returns the counters in their serialised order (declaration
// order), the layout every durable format stores them in.
func (s *WorkerStats) Words() [statsWordCount]uint64 {
	return [statsWordCount]uint64{
		s.Positions, s.InitFinal, s.MovesGenerated,
		s.Expanded, s.PredsGenerated, s.UpdatesApplied,
		s.UpdatesStale, s.Finalized, s.LoopResolved,
	}
}

// StatsFromWords is the inverse of WorkerStats.Words.
func StatsFromWords(w [statsWordCount]uint64) WorkerStats {
	return WorkerStats{
		Positions: w[0], InitFinal: w[1], MovesGenerated: w[2],
		Expanded: w[3], PredsGenerated: w[4], UpdatesApplied: w[5],
		UpdatesStale: w[6], Finalized: w[7], LoopResolved: w[8],
	}
}

var crcTab = crc64.MakeTable(crc64.ECMA)

// WriteSnapshot serialises the worker's complete mid-analysis state.
// Safe to call between waves (never during Expand/Apply). Layout,
// little-endian, 4 bytes per position plus the queues:
//
//	kernel u8, shard size u64
//	PackState value stream, then meta stream: size × u16 each
//	  (meta carries the loop flag: final with a nonzero counter)
//	queue, next: count u64, then count × u64 local indices
//	stats: 9 × u64 (WorkerStats.Words)
//	crc64/ECMA over everything above
func (w *Worker) WriteSnapshot(out io.Writer) error {
	n := w.ShardSize()
	vals := make([]game.Value, n)
	meta := make([]game.Value, n)
	w.PackState(vals, meta)
	buf := make([]byte, 0, 9+4*n+8*uint64(2+len(w.queue)+len(w.next)+statsWordCount+1))
	buf = append(buf, byte(w.kern))
	buf = binary.LittleEndian.AppendUint64(buf, n)
	for _, stream := range [][]game.Value{vals, meta} {
		for _, v := range stream {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
		}
	}
	for _, q := range [][]uint64{w.queue, w.next} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(q)))
		for _, l := range q {
			buf = binary.LittleEndian.AppendUint64(buf, l)
		}
	}
	for _, x := range w.Stats.Words() {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTab))
	_, err := out.Write(buf)
	return err
}

// ReadSnapshot restores worker me of part from a stream written by
// WriteSnapshot, under the kernel that wrote it. The game and partition
// must be the ones the snapshot was taken under (the shard size is
// verified; the game's identity cannot be). It reads no more than the
// largest valid snapshot of this shard and checks every length against
// the shard size, so a damaged or hostile stream yields an error, never
// a panic or an oversized allocation.
func ReadSnapshot(g game.Game, part *Partition, me int, in io.Reader) (*Worker, error) {
	n := part.ShardSize(me)
	most := 9 + 4*n + 2*(8+8*n) + 8*statsWordCount + 8
	data, err := io.ReadAll(io.LimitReader(in, int64(most)))
	if err != nil {
		return nil, fmt.Errorf("ra: reading snapshot: %w", err)
	}
	if len(data) < 9+8 {
		return nil, fmt.Errorf("ra: snapshot truncated at %d bytes", len(data))
	}
	data, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if crc64.Checksum(data, crcTab) != sum {
		return nil, errors.New("ra: snapshot checksum mismatch")
	}
	kern := Kernel(data[0])
	if kern != KernelScalar && kern != KernelSWAR {
		return nil, fmt.Errorf("ra: snapshot names unknown kernel %d", kern)
	}
	if size := binary.LittleEndian.Uint64(data[1:]); size != n {
		return nil, fmt.Errorf("ra: snapshot holds a %d-position shard, worker %d owns %d", size, me, n)
	}
	c := &snapshotCursor{rest: data[9:]}
	vals, meta := make([]game.Value, n), make([]game.Value, n)
	for _, stream := range [][]game.Value{vals, meta} {
		for i := range stream {
			stream[i] = game.Value(c.u16())
		}
	}
	var queues [2][]uint64
	for i := range queues {
		count := c.u64()
		if count > n {
			return nil, fmt.Errorf("ra: snapshot queue of %d entries exceeds the %d-position shard", count, n)
		}
		queues[i] = make([]uint64, count)
		for j := range queues[i] {
			if queues[i][j] = c.u64(); queues[i][j] >= n {
				return nil, fmt.Errorf("ra: snapshot queue entry %d outside the %d-position shard", queues[i][j], n)
			}
		}
	}
	var words [statsWordCount]uint64
	for i := range words {
		words[i] = c.u64()
	}
	if c.short || len(c.rest) != 0 {
		return nil, errors.New("ra: snapshot length does not match its contents")
	}
	if words[0] != n {
		return nil, fmt.Errorf("ra: snapshot stats count %d positions, shard has %d", words[0], n)
	}
	w, err := NewWorkerKernel(g, part, me, kern)
	if err != nil {
		return nil, err
	}
	if err := w.RestoreState(vals, meta); err != nil {
		return nil, err
	}
	w.SetFrontier(queues[0], queues[1])
	w.Stats = StatsFromWords(words)
	return w, nil
}

// snapshotCursor cuts fixed-width fields off a snapshot body. Once the
// body runs short it returns zeros and remembers, so decoding stays
// straight-line code whose loop bounds are the caller's, not the stream's.
type snapshotCursor struct {
	rest  []byte
	short bool
}

func (c *snapshotCursor) take(k int) []byte {
	if len(c.rest) < k {
		c.short, c.rest = true, nil
		return make([]byte, k)
	}
	b := c.rest[:k]
	c.rest = c.rest[k:]
	return b
}

func (c *snapshotCursor) u16() uint16 { return binary.LittleEndian.Uint16(c.take(2)) }
func (c *snapshotCursor) u64() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }

// WriteFileAtomic writes a file so that a crash at any point leaves
// either the complete new contents or the prior file untouched: the data
// goes to path+".tmp", is fsynced before close (a rename alone does not
// flush the page cache — a crash after an unsynced rename can persist an
// empty or truncated file over a valid one), and only then renamed over
// path. The temporary file is removed on every error path.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
