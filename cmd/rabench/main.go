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
	jsonPath := flag.String("json", "", "also write all tables as one JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
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
	if err := experiments.RunAll(scale, os.Stdout, !*quiet, *jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
		return 1
	}
	return 0
}
