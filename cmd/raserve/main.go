// Command raserve serves endgame databases over the network: a query
// server with an on-demand shard cache, so a game-playing program can
// probe databases far larger than its own memory.
//
// Usage:
//
//	raserve -db dbs/ -listen :7101 -mem 256MiB
//
// The server discovers every *.radb table in -db at startup (headers
// only), loads shards on first use in whichever format the header names
// (flat v1 or block-compressed v2), and evicts them LRU when the
// resident set exceeds -mem. A retired .rafy family file in -db is
// refused at startup. One listener answers both the
// binary batch protocol (see internal/server) and plain HTTP:
//
//	curl 'localhost:7101/value?board=0,0,0,0,2,1,1,0,0,0,0,2'
//	curl 'localhost:7101/stats'
//
// SIGINT/SIGTERM drains in-flight queries before exiting.
//
// For fault drills, -faults injects a deterministic fault schedule into
// every accepted connection (see internal/faultnet):
//
//	raserve -db dbs/ -faults seed=7,maxread=3,delay=2ms,every=10
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"retrograde/internal/awari"
	"retrograde/internal/faultnet"
	"retrograde/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "raserve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("db", ".", "directory holding *.radb databases")
	listen := flag.String("listen", "127.0.0.1:7101", "address to listen on")
	mem := flag.String("mem", "0", "shard-cache memory budget, e.g. 512MiB (0 = unlimited)")
	workers := flag.Int("workers", 0, "query worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "bounded batch queue depth (0 = default)")
	slamName := flag.String("grandslam", "allowed", "grand-slam rule the databases were built with")
	faults := flag.String("faults", "", "inject faults into every connection, e.g. seed=7,maxread=3,delay=2ms,every=10,cut=4096 (testing only)")
	flag.Parse()

	budget, err := parseBytes(*mem)
	if err != nil {
		return err
	}
	slam, err := awari.ParseGrandSlam(*slamName)
	if err != nil {
		return err
	}
	rules := awari.Standard
	rules.GrandSlam = slam
	plan, err := faultnet.Parse(*faults)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Dir:        *dir,
		Rules:      rules,
		MemBudget:  budget,
		Workers:    *workers,
		QueueDepth: *queue,
	}
	if *faults != "" {
		cfg.WrapConn = plan.Wrapper()
		fmt.Printf("raserve: FAULT INJECTION ACTIVE: %s\n", plan)
	}

	s, err := server.Start(*listen, cfg)
	if err != nil {
		return err
	}

	keys := s.Cache().Keys()
	fmt.Printf("raserve: %d shards in %s", len(keys), *dir)
	if max := s.Cache().AwariMax(); max >= 0 {
		fmt.Printf(", awari boards up to %d stones", max)
	}
	fmt.Println()
	for _, si := range s.Cache().Snapshot() {
		fmt.Printf("  %-20s v%d  %12d entries  %10d bytes\n", si.Key, si.Version, si.Entries, si.Bytes)
	}
	fmt.Printf("listening on %s (binary protocol + HTTP)\n", s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("raserve: draining...")
	return s.Close()
}

// parseBytes reads a byte count with an optional KiB/MiB/GiB (or KB/MB/GB,
// decimal) suffix.
func parseBytes(s string) (uint64, error) {
	str := strings.TrimSpace(s)
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"B", 1},
	} {
		if strings.HasSuffix(str, u.suffix) {
			str, mult = strings.TrimSuffix(str, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(str), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q (want e.g. 512MiB)", s)
	}
	return n * mult, nil
}
