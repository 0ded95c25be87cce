// Command raquery answers questions from awari databases built by
// rabuild: the value of a position, the best move, and the optimal line.
//
// Usage:
//
//	raquery -db dbs/ -board 0,0,0,0,2,1,1,0,0,0,0,2
//	raquery -db dbs/ -board 1,1,0,0,0,1,2,0,0,0,0,0 -line 10
//
// The board lists pits 0..11 from the mover's perspective (0..5 mover's
// row, 6..11 opponent's). Databases awari-0.radb .. awari-<n>.radb for
// the board's stone count must exist in -db; they are opened through the
// server's shard cache, the same code raserve answers from. Both plain
// (v1) and block-compressed (v2) files are accepted; the version is read
// from each header, so a directory may mix the two.
//
// With -server the same questions are answered by a running raserve
// instead of local files, through the retrying client — reconnecting
// with backoff on connection loss and backing off on overload replies.
// The address may equally be a rabroker fronting a fleet; the broker
// speaks the same protocol, so nothing else changes:
//
//	raquery -server localhost:7101 -board 0,0,0,0,2,1,1,0,0,0,0,2
//	raquery -server localhost:7100 -board ... -count 100 -retries 5 -timeout 10s
//
// -count repeats the query (a steady stream, for drills and smoke
// tests); the exit status reports whether every call eventually
// succeeded.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "raquery: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("db", ".", "directory holding awari-<n>.radb files")
	boardSpec := flag.String("board", "", "comma-separated pit counts, mover first (12 values)")
	line := flag.Int("line", 0, "play out this many optimal plies")
	slamName := flag.String("grandslam", "allowed", "grand-slam rule the databases were built with")
	serverAddr := flag.String("server", "", "query a running raserve or rabroker at this address instead of local files")
	count := flag.Int("count", 1, "with -server: repeat the query this many times")
	retries := flag.Int("retries", 3, "with -server: retries per call (reconnect on loss, back off on overload)")
	timeout := flag.Duration("timeout", 10*time.Second, "with -server: per-call deadline (0 = none)")
	flag.Parse()
	if *boardSpec == "" {
		return fmt.Errorf("-board is required")
	}
	board, err := awari.ParseBoard(*boardSpec)
	if err != nil {
		return err
	}
	slam, err := awari.ParseGrandSlam(*slamName)
	if err != nil {
		return err
	}
	rules := awari.Standard
	rules.GrandSlam = slam

	if *serverAddr != "" {
		return queryServer(*serverAddr, rules, board, *line, *count, *retries, *timeout)
	}

	stones := board.Stones()
	cache, err := server.NewCache(*dir, 0)
	if err != nil {
		return err
	}
	lookup, release, err := cache.AcquireAwari(stones)
	if err != nil {
		return fmt.Errorf("%w\nBuild the ladder with:\n  rabuild -stones %d -out %s", err, stones, *dir)
	}
	defer release()
	return play(rules, board, lookup, *line)
}

// queryServer answers from a running raserve through the retrying
// client. With count > 1 the same query streams repeatedly — a drill
// workload whose exit status says whether the client rode out whatever
// happened to the server in between. The optimal line is replayed under
// rules, the -grandslam rules the server was started with.
func queryServer(addr string, rules awari.Rules, board awari.Board, line, count, retries int, timeout time.Duration) error {
	c, err := server.DialConfig(addr, server.ClientConfig{Retries: retries, Timeout: timeout})
	if err != nil {
		return err
	}
	defer c.Close()

	for i := 0; i < count; i++ {
		pit, v, err := c.BestMove(board)
		if err != nil {
			return fmt.Errorf("call %d/%d: %w", i+1, count, err)
		}
		if count > 1 {
			fmt.Printf("call %3d/%d  value=%d", i+1, count, v)
			if pit >= 0 {
				fmt.Printf("  best pit %d", pit)
			}
			fmt.Println()
			continue
		}
		fmt.Printf("stones=%d value=%d (mover captures %d of %d)\n", board.Stones(), v, v, board.Stones())
		if pit >= 0 {
			fmt.Printf("best move: pit %d\n", pit)
		} else {
			fmt.Println("terminal position")
		}
		if line > 0 {
			_, moves, err := c.Line(board, line)
			if err != nil {
				return err
			}
			cur := board
			for ply, p := range moves {
				cur, _ = rules.Apply(cur, int(p))
				v, err := c.Value(cur)
				if err != nil {
					return err
				}
				fmt.Printf("ply %2d  plays pit %d  ->  %v  value=%d\n", ply+1, p, cur, v)
			}
		}
	}
	if st := c.Stats(); st.Reconnects > 0 || st.UnknownReplies > 0 {
		fmt.Printf("client: %d reconnects, %d unknown replies\n", st.Reconnects, st.UnknownReplies)
	}
	return nil
}

func play(rules awari.Rules, cur awari.Board, lookup awari.Lookup, line int) error {
	for ply := 0; ; ply++ {
		n := cur.Stones()
		v := lookup(n, awari.Rank(cur))
		note := ""
		if _, bv, ok := awari.BestMove(rules, cur, lookup); ok && bv != v {
			// The database value of a cycle position reflects the
			// repetition split, not a conversion any single move forces.
			note = fmt.Sprintf("  [cycle-valued: best conversion %d]", bv)
		}
		fmt.Printf("ply %2d  %v  stones=%2d  value=%d (mover captures %d of %d)%s\n", ply, cur, n, v, v, n, note)
		if ply >= line {
			if line == 0 {
				pit, mv, ok := awari.BestMove(rules, cur, lookup)
				if ok {
					fmt.Printf("best move: pit %d (worth %d)\n", pit, mv)
				} else {
					fmt.Println("terminal position")
				}
			}
			return nil
		}
		pit, _, ok := awari.BestMove(rules, cur, lookup)
		if !ok {
			fmt.Println("terminal position reached")
			return nil
		}
		child, captured := rules.Apply(cur, pit)
		fmt.Printf("        plays pit %d, captures %d\n", pit, captured)
		cur = child
	}
}
