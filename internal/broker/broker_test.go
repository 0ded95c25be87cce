package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/server"
)

const testStones = 5

// fleet is a test deployment: one ladder of truth, its rungs on disk,
// N raserve backends over that directory, and a broker over them.
type fleet struct {
	ladder   *ladder.Ladder
	backends []*server.Server
	broker   *Broker
}

func buildDBs(t *testing.T) (*ladder.Ladder, string) {
	t.Helper()
	l, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, testStones, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for n := 0; n <= testStones; n++ {
		tab, err := db.Pack(fmt.Sprintf("awari-%d", n), l.Slice(n).ValueBits(), l.Result(n).Values)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Save(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n))); err != nil {
			t.Fatal(err)
		}
	}
	return l, dir
}

// startFleet launches n backends and a broker over them with cfg's
// routing knobs.
func startFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	f := startBackends(t, n)
	f.broker = f.startBroker(t, cfg)
	return f
}

// startBackends launches n backends, each serving the full directory as
// a real fleet would for failover headroom, and no broker yet.
func startBackends(t *testing.T, n int) *fleet {
	t.Helper()
	l, dir := buildDBs(t)
	f := &fleet{ladder: l}
	for i := 0; i < n; i++ {
		s, err := server.Start("127.0.0.1:0", server.Config{Dir: dir, Rules: awari.Standard})
		if err != nil {
			t.Fatal(err)
		}
		f.backends = append(f.backends, s)
	}
	t.Cleanup(func() {
		for _, s := range f.backends {
			s.Close()
		}
	})
	return f
}

// startBroker launches a broker over the fleet's backends (cfg.Backends
// is filled in); it closes before the backends do.
func (f *fleet) startBroker(t *testing.T, cfg Config) *Broker {
	t.Helper()
	cfg.Backends = nil
	for _, s := range f.backends {
		cfg.Backends = append(cfg.Backends, s.Addr())
	}
	br, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { br.Close() })
	return br
}

// spreadVnodes picks a ring vnode count at which the rungs
// first..testStones land on both backends of a two-backend fleet, so
// that a test can rely on each backend owning a sharded rung instead of
// skipping on an unlucky port draw. owned[i] lists backend i's rungs.
func (f *fleet) spreadVnodes(t *testing.T, first int) (vnodes int, owned [2][]int) {
	t.Helper()
	addrs := []string{f.backends[0].Addr(), f.backends[1].Addr()}
	for vnodes = 1; vnodes <= 1000; vnodes++ {
		r := NewRing(vnodes, addrs...)
		owned = [2][]int{}
		for n := first; n <= testStones; n++ {
			i := slices.Index(addrs, r.Owner(server.RungKey(n)))
			owned[i] = append(owned[i], n)
		}
		if len(owned[0]) > 0 && len(owned[1]) > 0 {
			return vnodes, owned
		}
	}
	t.Fatalf("no vnode count up to 1000 spreads rungs %d..%d over both backends", first, testStones)
	return 0, owned
}

func boardOf(n int, idx uint64) awari.Board {
	var pits [awari.Pits]int
	awari.Space(n).Unrank(idx, pits[:])
	var b awari.Board
	for i, c := range pits {
		b[i] = int8(c)
	}
	return b
}

func randomBoards(rng *rand.Rand, count int) []awari.Board {
	boards := make([]awari.Board, count)
	for i := range boards {
		n := 1 + rng.Intn(testStones)
		boards[i] = boardOf(n, uint64(rng.Int63n(int64(awari.Size(n)))))
	}
	return boards
}

// TestBrokerRoundTrip: a mixed batch through the broker matches the
// ladder, per-query errors pass through, probes route by shard name.
func TestBrokerRoundTrip(t *testing.T) {
	f := startFleet(t, 2, Config{ReplicateMax: 2})
	c, err := server.Dial(f.broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	var qs []server.Query
	boards := randomBoards(rng, 64)
	for _, b := range boards {
		qs = append(qs, server.Query{Kind: server.KindBestMove, Board: b})
	}
	// A probe and an out-of-range board ride the same batch.
	qs = append(qs,
		server.Query{Kind: server.KindProbe, Shard: "awari-3", Index: 0},
		server.Query{Kind: server.KindValue, Board: awari.Board{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}},
	)
	as, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range boards {
		if as[i].Err != "" {
			t.Fatalf("query %d (%v): %s", i, b, as[i].Err)
		}
		if want := f.ladder.Value(b); as[i].Value != want {
			t.Errorf("board %v: value %d, ladder says %d", b, as[i].Value, want)
		}
		pit, _, ok := f.ladder.BestMove(b)
		if ok && as[i].Pit != pit {
			t.Errorf("board %v: pit %d, ladder says %d", b, as[i].Pit, pit)
		}
	}
	probe := as[len(as)-2]
	if probe.Err != "" {
		t.Errorf("probe: %s", probe.Err)
	}
	if probe.Value != f.ladder.Lookup(3, 0) {
		t.Errorf("probe value %d, ladder says %d", probe.Value, f.ladder.Lookup(3, 0))
	}
	if as[len(as)-1].Err == "" {
		t.Error("out-of-range board did not fail per-query")
	}
}

// TestBrokerParity: the broker is invisible — answers through it are
// bit-identical to a direct backend connection.
func TestBrokerParity(t *testing.T) {
	f := startFleet(t, 2, Config{ReplicateMax: 2})
	direct, err := server.Dial(f.backends[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	brokered, err := server.Dial(f.broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer brokered.Close()

	rng := rand.New(rand.NewSource(2))
	for _, b := range randomBoards(rng, 200) {
		q := []server.Query{{Kind: server.KindBestMove, Board: b}}
		da, err := direct.Do(q)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := brokered.Do(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(da[0], ba[0]) {
			t.Fatalf("board %v: direct %+v, brokered %+v", b, da[0], ba[0])
		}
	}
}

// killOne closes backend i and waits until the health checks of every
// broker in brs notice.
func (f *fleet) killOne(t *testing.T, i int, brs ...*Broker) {
	t.Helper()
	f.backends[i].Close()
	deadline := time.Now().Add(5 * time.Second)
	for _, br := range brs {
		for br.Metrics().HealthyBackends != len(f.backends)-1 {
			if time.Now().After(deadline) {
				t.Fatalf("broker never marked backend %d down", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func healthCfg() Config {
	return Config{
		ReplicateMax:   2,
		HealthInterval: 30 * time.Millisecond,
		PingTimeout:    500 * time.Millisecond,
		Client:         server.ClientConfig{Timeout: 2 * time.Second},
	}
}

// TestBrokerSurvivesBackendDeath: with one of two backends gone, every
// rung — replicated or consistent-hashed — keeps answering correctly,
// via health-aware routing and failover. Queries race the detection
// window on purpose: the broker must route around the corpse even
// before the health checker has marked it.
func TestBrokerSurvivesBackendDeath(t *testing.T) {
	f := startFleet(t, 2, healthCfg())
	c, err := server.DialConfig(f.broker.Addr(), server.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(3))
	warm := randomBoards(rng, 32)
	for _, b := range warm {
		if _, err := c.Value(b); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}

	f.backends[1].Close() // no wait: queries hit the corpse first
	for _, b := range randomBoards(rng, 64) {
		v, err := c.Value(b)
		if err != nil {
			t.Fatalf("board %v after kill: %v", b, err)
		}
		if want := f.ladder.Value(b); v != want {
			t.Errorf("board %v after kill: value %d, ladder says %d", b, v, want)
		}
	}

	// Detection converges; routed-around traffic shows up as failovers
	// (unless every key already belonged to the survivor, which two
	// backends and 64 random rung-keys make vanishingly unlikely).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && f.broker.Metrics().HealthyBackends != 1 {
		time.Sleep(20 * time.Millisecond)
	}
	m := f.broker.Metrics()
	if m.HealthyBackends != 1 {
		t.Errorf("healthy backends = %d, want 1", m.HealthyBackends)
	}
	if m.Unrouted != 0 {
		t.Errorf("unrouted = %d, want 0 (the survivor holds every rung)", m.Unrouted)
	}
}

// TestBrokerShardedRungFailover: with replication off entirely, losing
// the owner of a rung still answers through ring-order failover; and a
// batch that mixes the orphaned rung with the survivor's rungs and
// replicated rungs is answered whole, its replicated queries still
// tried on as many backends as ever.
func TestBrokerShardedRungFailover(t *testing.T) {
	f := startBackends(t, 2)
	vnodes, owned := f.spreadVnodes(t, 3)
	cfg := healthCfg()
	cfg.Vnodes = vnodes
	cfg.ReplicateMax = -1 // every rung single-owner
	f.broker = f.startBroker(t, cfg)
	cfg.ReplicateMax = 2 // rungs 0..2 replicated, 3..testStones sharded
	mixed := f.startBroker(t, cfg)
	c, err := server.DialConfig(f.broker.Addr(), server.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim, survivor := owned[1][0], owned[0][0]
	f.killOne(t, 1, f.broker, mixed)

	b := boardOf(victim, 0)
	v, err := c.Value(b)
	if err != nil {
		t.Fatalf("orphaned rung %d: %v", victim, err)
	}
	if want := f.ladder.Value(b); v != want {
		t.Errorf("orphaned rung %d: value %d, ladder says %d", victim, v, want)
	}
	if m := f.broker.Metrics(); m.Unrouted != 0 {
		t.Errorf("unrouted = %d, want 0", m.Unrouted)
	}

	var qs []server.Query
	for _, n := range []int{victim, survivor, 1, victim, 2, survivor} {
		for idx := uint64(0); idx < 3; idx++ {
			qs = append(qs, server.Query{Kind: server.KindValue, Board: boardOf(n, idx%awari.Size(n))})
		}
	}
	attempts := min(mixed.cfg.maxAttempts(), len(f.backends))
	for _, sb := range mixed.split(qs) {
		distinct := map[*backend]bool{}
		for _, be := range sb.cands {
			distinct[be] = true
		}
		if len(distinct) != attempts {
			t.Errorf("sub-batch %v tries %v, want %d distinct backends", sb.keys, sb.cands, attempts)
		}
	}
	mc, err := server.DialConfig(mixed.Addr(), server.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	as, err := mc.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if as[i].Err != "" {
			t.Errorf("mixed batch, board %v: %s", q.Board, as[i].Err)
		} else if want := f.ladder.Value(q.Board); as[i].Value != want {
			t.Errorf("mixed batch, board %v: value %d, ladder says %d", q.Board, as[i].Value, want)
		}
	}
	if m := mixed.Metrics(); m.Unrouted != 0 {
		t.Errorf("mixed batch: unrouted = %d, want 0", m.Unrouted)
	}
}

// TestBrokerAllBackendsDead: queries fail per-query (not by hanging or
// tearing the connection), /healthz flips to 503, and a failed query's
// error names every key of its sub-batch and every backend tried.
func TestBrokerAllBackendsDead(t *testing.T) {
	f := startFleet(t, 2, healthCfg())
	c, err := server.DialConfig(f.broker.Addr(), server.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.backends[0].Close()
	f.backends[1].Close()

	as, err := c.Do([]server.Query{{Kind: server.KindValue, Board: boardOf(3, 0)}})
	if err != nil {
		t.Fatalf("transport failed, want per-query error: %v", err)
	}
	if as[0].Err == "" {
		t.Error("query against a dead fleet succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && f.broker.Metrics().HealthyBackends != 0 {
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get("http://" + f.broker.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz with a dead fleet = %d, want 503", resp.StatusCode)
	}

	// One query per rung: three sharded keys over two possible candidate
	// sequences, and three replicated ones, so sub-batches carry several
	// keys and each error must name them all.
	var qs []server.Query
	for n := 0; n <= testStones; n++ {
		qs = append(qs, server.Query{Kind: server.KindValue, Board: boardOf(n, 0)})
	}
	if as, err = c.Do(qs); err != nil {
		t.Fatalf("transport failed, want per-query errors: %v", err)
	}
	keysIn := map[string][]string{} // error text -> keys of the queries it failed
	for n, a := range as {
		keysIn[a.Err] = append(keysIn[a.Err], server.RungKey(n))
	}
	multiKey := false
	for msg, keys := range keysIn {
		if msg == "" {
			t.Fatalf("query for %v succeeded against a dead fleet", keys)
		}
		for _, want := range append(keys, f.backends[0].Addr(), f.backends[1].Addr()) {
			if !strings.Contains(msg, want) {
				t.Errorf("error %q does not name %s", msg, want)
			}
		}
		multiKey = multiKey || len(keys) > 1
	}
	if !multiKey {
		t.Errorf("every sub-batch carried one key (%v); want keys combined per destination", keysIn)
	}
}

// TestBrokerOneSubBatchPerBackend: the broker combines by destination.
// A front batch spanning sharded rungs on both ring owners and
// replicated rungs costs one backend round trip per distinct first
// candidate — never more than the fleet size — and every answer is the
// direct server's.
func TestBrokerOneSubBatchPerBackend(t *testing.T) {
	f := startBackends(t, 2)
	vnodes, owned := f.spreadVnodes(t, 3)
	br := f.startBroker(t, Config{ReplicateMax: 2, Vnodes: vnodes})
	brokered, err := server.Dial(br.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer brokered.Close()
	direct, err := server.Dial(f.backends[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	rng := rand.New(rand.NewSource(5))
	board := func(n int) server.Query {
		return server.Query{Kind: server.KindBestMove, Board: boardOf(n, uint64(rng.Int63n(int64(awari.Size(n)))))}
	}
	// Rung mixes: both owners plus replicated, one owner plus
	// replicated, replicated only, and both owners alone.
	mixes := [][]int{
		{owned[0][0], owned[1][0], 1, 2},
		{owned[1][0], 0, 2},
		{0, 1, 2},
		{owned[0][0], owned[1][0]},
	}
	want := uint64(0)
	for round := 0; round < 40; round++ {
		rungs := mixes[round%len(mixes)]
		var qs []server.Query
		for i := 0; i < 16; i++ {
			qs = append(qs, board(rungs[i%len(rungs)]))
		}
		firsts := map[string]bool{}
		for _, q := range qs {
			if n := q.Board.Stones(); n > 2 {
				firsts[br.Ring().Owner(server.RungKey(n))] = true
			}
		}
		want += uint64(max(len(firsts), 1))

		as, err := brokered.Do(qs)
		if err != nil {
			t.Fatal(err)
		}
		das, err := direct.Do(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if !reflect.DeepEqual(as[i], das[i]) {
				t.Fatalf("board %v: brokered %+v, direct %+v", qs[i].Board, as[i], das[i])
			}
		}
	}
	got := uint64(0)
	for _, bm := range br.BackendsSnapshot() {
		got += bm.Batches
	}
	if got != want {
		t.Errorf("backend batches = %d for 40 front batches, want %d (one per destination)", got, want)
	}
}

// TestBrokerObservability: ping on the front, /metrics carries the
// shared shape (server block + clients list) plus per-backend detail,
// /backends shows placement, /stats renders.
func TestBrokerObservability(t *testing.T) {
	f := startFleet(t, 2, Config{ReplicateMax: 2})
	c, err := server.Dial(f.broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(0); err != nil {
		t.Fatalf("broker front ping: %v", err)
	}
	for _, b := range randomBoards(rand.New(rand.NewSource(4)), 32) {
		if _, err := c.Value(b); err != nil {
			t.Fatal(err)
		}
	}

	var m struct {
		Server   Metrics              `json:"server"`
		Clients  []server.ClientStats `json:"clients"`
		Backends []BackendMetrics     `json:"backends"`
	}
	getJSON(t, "http://"+f.broker.Addr()+"/metrics", &m)
	if m.Server.Queries < 32 || m.Server.Pings < 1 {
		t.Errorf("metrics queries=%d pings=%d", m.Server.Queries, m.Server.Pings)
	}
	if len(m.Clients) != 2 || len(m.Backends) != 2 {
		t.Errorf("clients=%d backends=%d, want 2 and 2", len(m.Clients), len(m.Backends))
	}
	sum := uint64(0)
	for _, bm := range m.Backends {
		sum += bm.Queries
	}
	if sum < 32 {
		t.Errorf("backend queries sum = %d, want >= 32", sum)
	}

	var bk struct {
		Placement map[string]string `json:"placement"`
	}
	getJSON(t, "http://"+f.broker.Addr()+"/backends", &bk)
	if bk.Placement["awari-0"] != "all (replicated)" {
		t.Errorf("placement[awari-0] = %q, want replicated", bk.Placement["awari-0"])
	}
	if owner := bk.Placement["awari-20"]; owner != f.backends[0].Addr() && owner != f.backends[1].Addr() {
		t.Errorf("placement[awari-20] = %q, not a backend", owner)
	}

	resp, err := http.Get("http://" + f.broker.Addr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !containsAll(string(body), "backends", "broker", "p999") {
		t.Errorf("/stats output incomplete:\n%s", body)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(sub) == 0 || len(s) >= len(sub) && (s == sub || len(s) > len(sub) && (s[:len(sub)] == sub || contains(s[1:], sub)))
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

// TestRouteKeyStrictRungs: only the canonical "awari-<n>" probe routes
// as a rung (and so may be treated as replicated); near-miss shard names
// keep their own ring owner.
func TestRouteKeyStrictRungs(t *testing.T) {
	if key, rung := routeKey(&server.Query{Kind: server.KindProbe, Shard: "awari-5"}); key != "awari-5" || rung != 5 {
		t.Errorf("routeKey(awari-5) = %q, %d", key, rung)
	}
	if key, rung := routeKey(&server.Query{Kind: server.KindValue, Board: awari.Board{2, 1}}); key != "awari-3" || rung != 3 {
		t.Errorf("routeKey(3-stone board) = %q, %d", key, rung)
	}
	for _, shard := range []string{"awari-5-sym", "awari-5x", "awari-5.radb", "awari-+5", "awari- 5", "awari-05", "awari-99999999"} {
		if key, rung := routeKey(&server.Query{Kind: server.KindProbe, Shard: shard}); key != shard || rung != -1 {
			t.Errorf("routeKey(%s) = %q, rung %d; want its own key and no rung", shard, key, rung)
		}
	}
}

// parkingBackend is a backend whose handler parks every batch probing
// the shard "block" until released — a server.Frontend with a fake
// owner, which is all a raserve is to the broker.
type parkingBackend struct {
	front   *server.Frontend
	entered chan struct{} // one send per parked batch
	release chan struct{} // closed to let parked batches finish
}

func startParkingBackend(t *testing.T) *parkingBackend {
	t.Helper()
	front, err := server.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &parkingBackend{front: front, entered: make(chan struct{}, 16), release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	front.Serve(func(qs []server.Query) ([]server.Answer, error) {
		as := make([]server.Answer, len(qs))
		for i, q := range qs {
			if q.Shard == "block" {
				p.entered <- struct{}{}
				<-p.release
			}
			as[i] = server.Answer{Value: game.Value(q.Index), Pit: -1}
		}
		return as, nil
	}, mux)
	t.Cleanup(func() { front.Close() })
	return p
}

// startOver launches a broker over one parking backend and a client to
// the broker's front.
func startOver(t *testing.T, p *parkingBackend, cfg Config) (*Broker, *server.Client) {
	t.Helper()
	cfg.Backends = []string{p.front.Addr()}
	br, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { br.Close() })
	c, err := server.DialConfig(br.Addr(), server.ClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return br, c
}

func probe(shard string, idx uint64) []server.Query {
	return []server.Query{{Kind: server.KindProbe, Shard: shard, Index: idx}}
}

// TestBrokerShedsBeyondMaxInflight: with one routing slot and a batch
// parked in it, the next batch is shed at the client with ErrOverloaded
// and counted; the parked one is still answered.
func TestBrokerShedsBeyondMaxInflight(t *testing.T) {
	p := startParkingBackend(t)
	br, c := startOver(t, p, Config{MaxInflight: 1, ReplicateMax: -1})

	parked := make(chan error, 1)
	go func() {
		as, err := c.Do(probe("block", 7))
		if err == nil && as[0].Value != 7 {
			err = fmt.Errorf("parked batch answered %+v, want value 7", as[0])
		}
		parked <- err
	}()
	<-p.entered
	if _, err := c.Do(probe("quick", 1)); !errors.Is(err, server.ErrOverloaded) {
		t.Errorf("batch beyond MaxInflight = %v, want ErrOverloaded", err)
	}
	if m := br.Metrics(); m.Overloads != 1 || m.Batches != 0 {
		t.Errorf("overloads = %d, batches = %d; want 1 shed while the parked batch is still out", m.Overloads, m.Batches)
	}
	close(p.release)
	if err := <-parked; err != nil {
		t.Errorf("parked batch: %v", err)
	}
	if as, err := c.Do(probe("quick", 2)); err != nil || as[0].Value != 2 {
		t.Errorf("batch after the slot freed = %+v, %v", as, err)
	}
}

// TestBrokerCloseDrains: Close answers the batch in flight, refuses the
// next, and is idempotent.
func TestBrokerCloseDrains(t *testing.T) {
	p := startParkingBackend(t)
	br, c := startOver(t, p, Config{ReplicateMax: -1})

	parked := make(chan error, 1)
	go func() {
		as, err := c.Do(probe("block", 7))
		if err == nil && as[0].Value != 7 {
			err = fmt.Errorf("in-flight batch answered %+v, want value 7", as[0])
		}
		parked <- err
	}()
	<-p.entered

	closed := make(chan error, 1)
	go func() { closed <- br.Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Do(probe("quick", 1))
		if errors.Is(err, server.ErrOverloaded) {
			break // draining: refused, not routed
		}
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("broker never started refusing batches (last: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a batch still in flight", err)
	default:
	}
	close(p.release)
	if err := <-parked; err != nil {
		t.Errorf("in-flight batch across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close = %v", err)
	}
	if err := br.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if _, err := server.Dial(br.Addr()); err == nil {
		t.Error("dialing a closed broker succeeded")
	}
}
