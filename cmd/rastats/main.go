// Command rastats summarises built awari databases: per-rung value
// distributions, file sizes, and — for block-compressed v2 files —
// compression ratios and codec mixes, read straight from .radb files.
//
// Usage:
//
//	rastats -db dbs/ -stones 8
//	rastats -db dbs/ -stones 8 -json stats.json
//	rastats -spill dbs/spill/awari-8     # summarise an out-of-core spill store
//
// -spill inspects a store instead of databases — an out-of-core spill
// directory or one TCP-mesh node's checkpoint directory: block files on
// disk, total spill bytes, and — when a checkpoint manifest is present —
// the interrupted solve it would resume.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"retrograde/internal/analysis"
	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/oocore"
	"retrograde/internal/stats"
	"retrograde/internal/zdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rastats: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("db", ".", "directory holding awari-<n>.radb files")
	stones := flag.Int("stones", 8, "summarise rungs 0..stones")
	jsonPath := flag.String("json", "", "also write the table as one JSON file")
	spillDir := flag.String("spill", "", "summarise the out-of-core spill store in this directory instead")
	flag.Parse()

	if *spillDir != "" {
		return spillReport(*spillDir)
	}

	t := stats.NewTable("awari database statistics",
		"stones", "positions", "packed", "file", "ratio", "codecs",
		"mean value", "mover majority %", "zero %", "all %")
	for n := 0; n <= *stones; n++ {
		path := filepath.Join(*dir, fmt.Sprintf("awari-%d.radb", n))
		values, packed, fileBytes, codecs, err := loadValues(path)
		if err != nil {
			return err
		}
		if uint64(len(values)) != awari.Size(n) {
			return fmt.Errorf("%s holds %d entries, want %d", path, len(values), awari.Size(n))
		}
		hist := make([]uint64, n+1)
		var sum uint64
		var majority uint64
		for i, val := range values {
			v := int(val)
			if v > n {
				return fmt.Errorf("%s entry %d holds %d, above the stone total %d", path, i, v, n)
			}
			hist[v]++
			sum += uint64(v)
			if 2*v > n {
				majority++
			}
		}
		size := uint64(len(values))
		mean := 0.0
		if size > 0 {
			mean = float64(sum) / float64(size)
		}
		t.Row(n,
			stats.Count(size),
			stats.Bytes(packed),
			stats.Bytes(fileBytes),
			fmt.Sprintf("%.2f", float64(fileBytes)/float64(max(packed, 1))),
			codecs,
			mean,
			fmt.Sprintf("%.1f", 100*float64(majority)/float64(size)),
			fmt.Sprintf("%.1f", 100*float64(hist[0])/float64(size)),
			fmt.Sprintf("%.1f", 100*float64(hist[n])/float64(size)))
	}
	t.Note("packed is the v1 bit-packed payload size; file is the stored payload (v2 = blocks + directory)")
	t.Note("codecs counts v2 blocks per codec: raw, narrowed, run-length, huffman")
	t.Note("mean value is the stones the mover captures on average over all positions")
	t.Note("by zero-sum symmetry the mean tends toward n/2 as cyclic splits dominate")
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		prov := stats.Provenance{
			Tool:       "rastats",
			RavetSuite: analysis.Version,
			Analyzers:  len(analysis.Suite()),
		}
		if err := stats.WriteJSON(f, prov, []stats.NamedTable{{ID: "rastats", Table: t}}); err != nil {
			return err
		}
	}
	return nil
}

// spillReport prints what a store holds — an out-of-core spill directory
// or one TCP-mesh node's checkpoint directory: the block files and, when
// a manifest is present, the checkpointed solve a rerun would resume.
func spillReport(dir string) error {
	info, err := oocore.InspectDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("spill store %s\n", info.Dir)
	fmt.Printf("  block files   %d (%s): %d bases (%s), %d deltas (%s)\n", info.BlockFiles, stats.Bytes(info.SpillBytes),
		info.BlockFiles-info.DeltaFiles, stats.Bytes(info.SpillBytes-info.DeltaBytes), info.DeltaFiles, stats.Bytes(info.DeltaBytes))
	if !info.HasManifest {
		fmt.Printf("  manifest      none (no interrupted solve to resume)\n")
		return nil
	}
	if info.MeshNode() {
		fmt.Printf("  mesh node     shard %d of %d (group %s), saved at the entry of wave %d\n",
			info.Shard, info.Shards, stats.Count(info.Group), info.Wave)
		fmt.Printf("  solve         %s positions, %s kernel\n", stats.Count(info.Size), info.Kernel)
		return nil
	}
	fmt.Printf("  manifest      checkpoint after wave %d (%d checkpoints so far)\n", info.Waves, info.Checkpoints)
	fmt.Printf("  solve         %s positions, %s kernel, %d blocks of %s\n",
		stats.Count(info.Size), info.Kernel, info.Blocks, stats.Count(info.Group))
	fmt.Printf("  pinned        %d bases, %d of them with a delta\n", info.Blocks, info.PinnedDeltas)
	fmt.Printf("  parked runs   %s cross-block update runs awaiting delivery\n", stats.Count(info.Pending))
	fmt.Printf("  spill I/O     %s spills (%s deltas, %s compactions; %s written), %s reloads (%s read)\n",
		stats.Count(info.Spilled), stats.Count(info.Deltas), stats.Count(info.Compactions), stats.Bytes(info.SpillBytesWritten),
		stats.Count(info.Reloaded), stats.Bytes(info.SpillBytesRead))
	fmt.Printf("  scheduler     %d/%d prefetch hits, %d write stalls\n",
		info.PrefetchHits, info.PrefetchIssued, info.WriteStalls)
	return nil
}

// loadValues reads a v1 or v2 database, returning its decoded values,
// the v1-equivalent packed payload size, the stored payload size, and a
// codec-mix summary ("-" for v1 files).
func loadValues(path string) (values []game.Value, packed, fileBytes uint64, codecs string, err error) {
	r, err := zdb.Open(path)
	if err != nil {
		return nil, 0, 0, "", err
	}
	codecs = "-"
	switch t := r.(type) {
	case *zdb.Table:
		if values, err = t.Unpack(); err != nil {
			return nil, 0, 0, "", err
		}
		raw, narrow, rle, huff := t.CodecCounts()
		codecs = fmt.Sprintf("r%d n%d l%d h%d", raw, narrow, rle, huff)
	case *db.Table:
		values = t.Unpack()
	}
	return values, db.PackedBytes(r.Size(), r.Bits()), r.Bytes(), codecs, nil
}
