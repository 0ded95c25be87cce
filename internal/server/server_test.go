package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/faultnet"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/search"
	"retrograde/internal/zdb"
)

const testStones = 5

// buildLadder solves awari rungs 0..testStones.
func buildLadder(t *testing.T) *ladder.Ladder {
	t.Helper()
	l, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, testStones, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// saveRungs writes the ladder's databases as awari-<n>.radb files and
// returns the total packed bytes.
func saveRungs(t *testing.T, l *ladder.Ladder, dir string) uint64 {
	t.Helper()
	total := uint64(0)
	for n := 0; n <= l.MaxStones(); n++ {
		tab, err := db.Pack(fmt.Sprintf("awari-%d", n), l.Slice(n).ValueBits(), l.Result(n).Values)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Save(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n))); err != nil {
			t.Fatal(err)
		}
		total += tab.Bytes()
	}
	return total
}

// boardOf decodes position idx of the n-stone space.
func boardOf(n int, idx uint64) awari.Board {
	var pits [awari.Pits]int
	awari.Space(n).Unrank(idx, pits[:])
	var b awari.Board
	for i, c := range pits {
		b[i] = int8(c)
	}
	return b
}

func startServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.Dir = dir
	s, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRoundTrip checks that served values match a direct db.Table probe
// bit for bit, across every rung.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	for n := 0; n <= testStones; n++ {
		tab, err := db.Load(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n)))
		if err != nil {
			t.Fatal(err)
		}
		size := awari.Size(n)
		for _, idx := range []uint64{0, size / 3, size / 2, size - 1} {
			got, err := c.Value(boardOf(n, idx))
			if err != nil {
				t.Fatalf("value of rung %d idx %d: %v", n, idx, err)
			}
			if want := tab.Get(idx); got != want {
				t.Errorf("rung %d idx %d: served %d, table holds %d", n, idx, got, want)
			}
		}
	}
}

// TestBatch exercises a mixed batch through Do.
func TestBatch(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	b := awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}
	as, err := c.Do([]Query{
		{Kind: KindValue, Board: b},
		{Kind: KindBestMove, Board: b},
		{Kind: KindLine, Board: b, MaxPlies: 8},
		{Kind: KindValue, Board: awari.Board{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 48}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Err != "" || as[0].Value != l.Value(b) {
		t.Errorf("value answer = %+v, ladder says %d", as[0], l.Value(b))
	}
	pit, _, _ := l.BestMove(b)
	if as[1].Err != "" || as[1].Pit != pit {
		t.Errorf("best-move answer = %+v, ladder says pit %d", as[1], pit)
	}
	if as[2].Err != "" || len(as[2].Line) == 0 || int(as[2].Line[0]) != pit {
		t.Errorf("line answer = %+v, want a line starting with pit %d", as[2], pit)
	}
	// The 48-stone board is outside the built rungs: a per-query error
	// naming the fix, not a batch failure.
	if as[3].Err == "" || !strings.Contains(as[3].Err, "rabuild") {
		t.Errorf("out-of-coverage answer = %+v, want a rabuild hint", as[3])
	}
}

// TestLineIsOptimal replays the served line move by move against the
// ladder's best-move oracle.
func TestLineIsOptimal(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	cur := awari.Board{1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0}
	_, line, err := c.Line(cur, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) == 0 {
		t.Fatal("empty line for a non-terminal position")
	}
	for ply, p := range line {
		pit, _, ok := l.BestMove(cur)
		if !ok {
			t.Fatalf("line continues past a terminal position at ply %d", ply)
		}
		if int(p) != pit {
			t.Errorf("ply %d: served pit %d, ladder plays %d", ply, p, pit)
		}
		cur, _ = awari.Standard.Apply(cur, int(p))
	}
}

// TestFamilyShard checks a retired .rafy family file in the database
// directory is refused by name: skipping it would quietly serve fewer
// rungs than the directory seems to hold.
func TestFamilyShard(t *testing.T) {
	dir := t.TempDir()
	saveRungs(t, buildLadder(t), dir)
	if err := os.WriteFile(filepath.Join(dir, "awari.rafy"), []byte("RAFY"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewCache(dir, 0)
	if !errors.Is(err, db.ErrFamilyRetired) || !strings.Contains(err.Error(), "awari.rafy") {
		t.Fatalf("NewCache with a .rafy file: %v, want it refused by name", err)
	}
	if _, err := Start("127.0.0.1:0", Config{Dir: dir}); err == nil {
		t.Fatal("Start served a directory holding a .rafy file")
	}
}

// TestProbeShard probes a non-awari table by name and index.
func TestProbeShard(t *testing.T) {
	dir := t.TempDir()
	g, err := nim.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ra.Sequential{}.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.Pack(g.Name(), g.ValueBits(), r.Values)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(filepath.Join(dir, g.Name()+".radb")); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	for idx := uint64(0); idx < g.Size(); idx++ {
		got, err := c.Probe(g.Name(), idx)
		if err != nil {
			t.Fatal(err)
		}
		if want := tab.Get(idx); got != want {
			t.Errorf("probe %s[%d] = %d, want %d", g.Name(), idx, got, want)
		}
	}
	if _, err := c.Probe(g.Name(), g.Size()); err == nil {
		t.Error("out-of-range probe succeeded")
	}
	if _, err := c.Probe("no-such-shard", 0); err == nil {
		t.Error("probe of an unknown shard succeeded")
	}
}

// TestCacheHit asserts a repeated query is served from the shard cache:
// no second disk load.
func TestCacheHit(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	b := awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}
	for i := 0; i < 3; i++ {
		if _, err := c.Value(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, si := range s.Cache().Snapshot() {
		if !strings.HasPrefix(si.Key, "awari-") {
			continue
		}
		if si.Loads != 1 {
			t.Errorf("shard %s loaded %d times for 3 identical queries, want 1", si.Key, si.Loads)
		}
		if si.Hits < 2 {
			t.Errorf("shard %s: %d hits, want >= 2", si.Key, si.Hits)
		}
	}
}

// TestHTTP exercises the JSON endpoints sharing the binary listener.
func TestHTTP(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	base := "http://" + s.Addr()

	b := awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}
	var v struct {
		Stones  int        `json:"stones"`
		Value   game.Value `json:"value"`
		BestPit int        `json:"bestPit"`
	}
	getJSON(t, base+"/value?board=0,0,0,0,2,1,1,0,0,0,0,1", &v)
	if v.Stones != b.Stones() || v.Value != l.Value(b) {
		t.Errorf("/value = %+v, ladder says %d of %d stones", v, l.Value(b), b.Stones())
	}
	pit, _, _ := l.BestMove(b)
	if v.BestPit != pit {
		t.Errorf("/value bestPit = %d, ladder says %d", v.BestPit, pit)
	}

	var line struct {
		Line []int `json:"line"`
	}
	getJSON(t, base+"/line?board=0,0,0,0,2,1,1,0,0,0,0,1&plies=6", &line)
	if len(line.Line) == 0 || line.Line[0] != pit {
		t.Errorf("/line = %+v, want a line starting with pit %d", line, pit)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "awari-5") || !strings.Contains(string(body), "latency") {
		t.Errorf("/stats output lacks shard or latency info:\n%s", body)
	}

	resp, err = http.Get(base + "/value?board=not-a-board")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/value with a bad board = %d, want 400", resp.StatusCode)
	}

	var shards []ShardInfo
	getJSON(t, base+"/shards", &shards)
	if len(shards) != testStones+1 {
		t.Errorf("/shards lists %d shards, want %d", len(shards), testStones+1)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestEvictionStress hammers the server with concurrent queries under a
// budget that forces constant eviction; run under -race this is the
// pinning-vs-eviction regression test. Values are verified against the
// ladder on every reply.
func TestEvictionStress(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	total := saveRungs(t, l, dir)
	s := startServer(t, dir, Config{MemBudget: total/2 + 1, Workers: 4, QueueDepth: 256})
	c := dial(t, s)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				n := rng.Intn(testStones + 1)
				idx := uint64(rng.Int63n(int64(awari.Size(n))))
				b := boardOf(n, idx)
				got, err := c.Value(b)
				if err != nil {
					t.Errorf("value of rung %d idx %d: %v", n, idx, err)
					return
				}
				if want := l.Lookup(n, idx); got != want {
					t.Errorf("rung %d idx %d: served %d during evictions, want %d", n, idx, got, want)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if used, budget := s.Cache().Used(), s.Cache().Budget(); used > budget {
		t.Errorf("resident %d bytes exceeds budget %d after the storm", used, budget)
	}
	evictions := uint64(0)
	for _, si := range s.Cache().Snapshot() {
		evictions += si.Evicts
	}
	if evictions == 0 {
		t.Error("a half-sized budget never evicted anything")
	}
}

// TestOverload fills the bounded queue of a worker-less server and
// checks that the next batch is shed, not buffered — over the binary
// protocol and over HTTP, which share the front end's entry and its
// overload counter.
func TestOverload(t *testing.T) {
	front, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	s := &Server{front: front, jobs: make(chan *job, 1)}
	s.jobs <- &job{} // queue full, no worker draining it
	front.Serve(s.execute, s.httpMux())

	c, err := Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]Query{{Kind: KindValue}}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("batch against a full queue = %v, want ErrOverloaded", err)
	}
	resp, err := http.Get("http://" + front.Addr() + "/value?board=0,0,0,0,0,0,0,0,0,0,0,1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/value against a full queue = %d, want 503", resp.StatusCode)
	}
	if m := front.Metrics(); m.Overloads != 2 || m.Batches != 0 {
		t.Errorf("overloads = %d, batches = %d; want 2 shed and none served", m.Overloads, m.Batches)
	}
}

// TestDrain checks graceful shutdown: Close answers what was admitted
// and refuses what comes after.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)
	if _, err := c.Value(awari.Board{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Draining: the entry every request path goes through refuses new
	// work, and says so in the counters.
	if _, err := s.front.Do([]Query{{Kind: KindValue}}); err != ErrOverloaded {
		t.Errorf("Do on a closed server = %v, want ErrOverloaded", err)
	}
	if m := s.Metrics(); m.Batches != 1 || m.Overloads != 1 {
		t.Errorf("batches = %d, overloads = %d; want 1 served and 1 refused", m.Batches, m.Overloads)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Error("dialing a closed server succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestCloseFlushesAdmittedHTTPAnswer: net/http writes a response out
// only after its handler has returned, so an HTTP answer is still on
// its way when the batch behind it is done. Close must let it finish.
// Every write on the wire is delayed to hold that window open.
func TestCloseFlushesAdmittedHTTPAnswer(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{
		WrapConn: faultnet.Plan{Delay: 200 * time.Millisecond}.Wrapper(),
	})

	type result struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/value?board=0,0,0,0,2,1,1,0,0,0,0,1")
		if err != nil {
			got <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{resp.StatusCode, body, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); s.Metrics().Batches != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the server")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("GET /value across Close = %d, %v; want a complete 200", r.status, r.err)
	}
	var v struct {
		Value game.Value `json:"value"`
	}
	if err := json.Unmarshal(r.body, &v); err != nil {
		t.Fatalf("response cut mid-body: %v\n%s", err, r.body)
	}
	if want := l.Value(awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}); v.Value != want {
		t.Errorf("value = %d, ladder says %d", v.Value, want)
	}
}

// TestRemoteSearch drives internal/search through the client's Prober:
// the remote-probing searcher must agree with the local one.
func TestRemoteSearch(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	p := NewProber(c)
	remote := search.NewProber(p, awari.Standard, awari.LoopOwnSide, testStones)
	local := search.New(l)

	boards := []awari.Board{
		{1, 2, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0}, // 7 stones, above the databases
		{0, 0, 3, 0, 0, 2, 1, 1, 0, 0, 0, 0}, // 7 stones, capture threats
		{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}, // 5 stones, a direct probe
	}
	for _, b := range boards {
		rr, err := remote.Solve(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := local.Solve(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Value != lr.Value || rr.BestMove != lr.BestMove || rr.Exact != lr.Exact {
			t.Errorf("board %v: remote search %+v, local search %+v", b, rr, lr)
		}
	}
	if err := p.Err(); err != nil {
		t.Errorf("prober recorded %v", err)
	}
}

// TestPing drives the binary liveness op end to end: pongs come back on
// a live server, interleave correctly with pipelined queries, and the
// server's ping counter shows up in /metrics.
func TestPing(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	c := dial(t, s)

	if err := c.Ping(0); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Pings interleaved with queries on the same pipelined connection.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(0); err != nil {
				t.Errorf("concurrent ping: %v", err)
			}
			if _, err := c.Value(boardOf(testStones, 0)); err != nil {
				t.Errorf("query between pings: %v", err)
			}
		}()
	}
	wg.Wait()

	var m struct {
		Server  ServerMetrics `json:"server"`
		Clients []ClientStats `json:"clients"`
	}
	getJSON(t, "http://"+s.Addr()+"/metrics", &m)
	if m.Server.Pings < 9 {
		t.Errorf("/metrics pings = %d, want >= 9", m.Server.Pings)
	}
	if m.Server.Queries < 8 {
		t.Errorf("/metrics queries = %d, want >= 8", m.Server.Queries)
	}
	if m.Clients == nil {
		t.Error("/metrics clients list missing (want [] on raserve)")
	}

	s.Close()
	if err := c.Ping(0); err == nil {
		t.Error("ping succeeded against a closed server")
	}
}

// TestCompressedShardCountersExported serves block-compressed rungs and
// checks that their point lookups are visible from outside: values still
// agree with the ladder, and /metrics and /stats carry per-shard lookups.
func TestCompressedShardCountersExported(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	for n := 0; n <= l.MaxStones(); n++ {
		tab, err := db.Pack(fmt.Sprintf("awari-%d", n), l.Slice(n).ValueBits(), l.Result(n).Values)
		if err != nil {
			t.Fatal(err)
		}
		z, err := zdb.Compress(tab, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Save(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n))); err != nil {
			t.Fatal(err)
		}
	}
	s := startServer(t, dir, Config{})
	c := dial(t, s)
	top := l.Result(testStones).Values
	for idx := uint64(0); idx < uint64(len(top)); idx += 97 {
		got, err := c.Value(boardOf(testStones, idx))
		if err != nil {
			t.Fatal(err)
		}
		if got != top[idx] {
			t.Fatalf("value of position %d = %d, want %d", idx, got, top[idx])
		}
	}

	var m struct {
		Shards []ShardInfo `json:"shards"`
	}
	getJSON(t, "http://"+s.Addr()+"/metrics", &m)
	if len(m.Shards) != testStones+1 {
		t.Fatalf("/metrics lists %d shards, want %d", len(m.Shards), testStones+1)
	}
	var topShard ShardInfo
	for _, si := range m.Shards {
		if si.Key == fmt.Sprintf("awari-%d", testStones) {
			topShard = si
		}
	}
	if topShard.Version != 2 || topShard.Lookups < uint64(len(top)/97) {
		t.Errorf("/metrics top shard: %+v, want a v2 shard with lookups counted", topShard)
	}
	resp, err := http.Get("http://" + s.Addr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "lookups") {
		t.Errorf("/stats shard table lacks the lookups column:\n%s", body)
	}
}
