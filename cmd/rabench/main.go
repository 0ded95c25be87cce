// Command rabench regenerates the paper's evaluation: every table and
// figure of EXPERIMENTS.md, printed as aligned text tables.
//
// Usage:
//
//	rabench                       # default scale: awari-11, 1..64 processors
//	rabench -scale quick          # seconds-long smoke run
//	rabench -scale large          # awari-12 (several minutes)
//	rabench -stones 10            # override the headline database
//	rabench -json results.json    # also dump every table as JSON
//	rabench -cpuprofile cpu.out   # profile the hot path with pprof
//	rabench -smoke                # E14 kernel check only; exit 1 if the scalar and SWAR databases differ
//	rabench -oocore               # E15 out-of-core cap sweep only; exit 1 on any
//	                              # checksum divergence from the in-core oracle
//	rabench -writeback            # E16 sync-vs-pipelined spill A/B only; exit 1
//	                              # on any checksum divergence on either side
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"retrograde/internal/experiments"
)

func main() {
	// Deferred profile writers must run before exit; keep os.Exit out of
	// the frame that owns them.
	os.Exit(run())
}

func run() int {
	scaleName := flag.String("scale", "default", "experiment scale: quick, default, large")
	stones := flag.Int("stones", 0, "override the headline awari database (stone count)")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	jsonPath := flag.String("json", "", "also write all tables as one JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	smoke := flag.Bool("smoke", false, "run only the E14 kernel comparison and fail if the scalar and SWAR databases differ")
	oocoreRun := flag.Bool("oocore", false, "run only the E15 out-of-core cap sweep and fail on any divergence from the in-core oracle")
	writebackRun := flag.Bool("writeback", false, "run only the E16 sync-vs-pipelined spill A/B and fail on any divergence from the in-core oracle")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "default":
		scale = experiments.Default()
	case "large":
		scale = experiments.Large()
	default:
		fmt.Fprintf(os.Stderr, "rabench: unknown scale %q (want quick, default or large)\n", *scaleName)
		return 2
	}
	if *stones > 0 {
		scale.Stones = *stones
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			}
		}()
	}
	if *smoke {
		if err := experiments.E14Smoke(scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
		return 0
	}
	if *oocoreRun {
		if err := experiments.E15Smoke(scale, os.Stdout, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
		return 0
	}
	if *writebackRun {
		if err := experiments.E16Smoke(scale, os.Stdout, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			return 1
		}
		return 0
	}
	if err := experiments.RunAll(scale, os.Stdout, !*quiet, *csvDir, *jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
		return 1
	}
	return 0
}
