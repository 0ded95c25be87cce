package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/broker"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/server"
	"retrograde/internal/zdb"
)

// poolSize is how many distinct batches a query stream cycles through.
// Batch i of a stream is pool[i mod poolSize] and the pool is derived
// from the seed alone, so the same seed gives the same stream; the
// expected answers are worked out once, during set-up, so that checking
// every answer costs the load generator a comparison.
const poolSize = 2048

// clientConns is the number of client connections (and closed-loop clients).
const clientConns = 2

// queueDepth is every server's batch queue, and clientConfig every
// client's (the load generator's and the broker's backend connections).
// The seed host stalls for up to 100 ms at a time; at the fixed rates that
// is several hundred batches arriving at once, which raserve's default
// queue of 64 sheds — and a shed batch fails the run. The deeper queue
// and the single retry keep a host stall a latency event.
const queueDepth = 1024

var clientConfig = server.ClientConfig{Retries: 1, Timeout: 10 * time.Second}

// poolBatch is one batch of the stream with the ladder's answers.
type poolBatch struct {
	qs      []server.Query
	want    []game.Value
	wantPit []int // -1 where the server reports no move
}

// genBatch derives batch i from the seed and i alone, as raload does:
// boards from rungs 1..stones weighted by rung size, three quarters
// best-move queries and one quarter value queries.
func genBatch(seed int64, i int, l *ladder.Ladder) poolBatch {
	stones := l.MaxStones()
	rng := rand.New(rand.NewSource(seed + int64(i)*0x6a09e667f3bcc909))
	cum := make([]uint64, stones+1) // cum[r] = positions in rungs 1..r
	for r := 1; r <= stones; r++ {
		cum[r] = cum[r-1] + awari.Size(r)
	}
	b := poolBatch{make([]server.Query, batchSize), make([]game.Value, batchSize), make([]int, batchSize)}
	for j := range b.qs {
		x := uint64(rng.Int63n(int64(cum[stones])))
		rung := 1
		for cum[rung] <= x {
			rung++
		}
		board := l.Slice(rung).Board(x - cum[rung-1])
		b.qs[j] = server.Query{Kind: server.KindBestMove, Board: board}
		b.want[j], b.wantPit[j] = l.Value(board), -1
		if rng.Intn(4) == 0 {
			b.qs[j].Kind = server.KindValue
		} else if pit, _, ok := l.BestMove(board); ok {
			b.wantPit[j] = pit
		}
	}
	return b
}

// serving is one set-up of a serve workload: the ladder the answers are
// checked against, its databases on disk, the tier serving them, and the
// clients.
type serving struct {
	ladder    *ladder.Ladder
	dir       string
	dbBytes   int64
	servers   []*server.Server
	broker    *broker.Broker
	clients   []*server.Client // to the tier's front: the broker if there is one
	pool      []poolBatch
	positions uint64
}

func (s *serving) close() {
	if s == nil {
		return
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.broker != nil {
		s.broker.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	os.RemoveAll(s.dir)
}

func dial(addr string) ([]*server.Client, error) {
	var clients []*server.Client
	for i := 0; i < clientConns; i++ {
		c, err := server.DialConfig(addr, clientConfig)
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// startServing builds the ladder, writes its databases (block-compressed
// for serve-zdb), starts the tier on loopback and dials the clients.
func (r *run) startServing() (_ *serving, err error) {
	s := &serving{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(r.dir, "db-"); err != nil {
		return nil, err
	}
	if s.ladder, err = ladder.Build(awariConfig, r.sz.ServeMax, ra.Sequential{}, nil); err != nil {
		return nil, err
	}
	for n := 0; n <= r.sz.ServeMax; n++ {
		tab, err := db.Pack(fmt.Sprintf("awari-%d", n), s.ladder.Slice(n).ValueBits(), s.ladder.Result(n).Values)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(s.dir, fmt.Sprintf("awari-%d.radb", n))
		if r.o.workload == "serve-zdb" {
			z, err := zdb.Compress(tab, 0)
			if err != nil {
				return nil, err
			}
			err = z.Save(path)
		} else {
			err = tab.Save(path)
		}
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		s.dbBytes += info.Size()
		s.positions += awari.Size(n)
	}
	backends := 1
	if r.o.workload == "serve-broker" {
		backends = 2
	}
	var addrs []string
	for i := 0; i < backends; i++ {
		srv, err := server.Start("127.0.0.1:0", server.Config{Dir: s.dir, Rules: awariConfig.Rules, QueueDepth: queueDepth})
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	front := addrs[0]
	if backends > 1 {
		s.broker, err = broker.Start("127.0.0.1:0", broker.Config{
			Backends:     addrs,
			ReplicateMax: 6,
			Client:       clientConfig,
		})
		if err != nil {
			return nil, err
		}
		front = s.broker.Addr()
	}
	if s.clients, err = dial(front); err != nil {
		return nil, err
	}
	s.pool = make([]poolBatch, poolSize)
	for i := range s.pool {
		s.pool[i] = genBatch(r.o.seed, i, s.ladder)
	}
	return s, nil
}

// loadGen sends the stream and accounts for every batch.
type loadGen struct {
	res     *result
	tr      *tracer // nil: record no spans
	pool    []poolBatch
	clients []*server.Client
	offset  int // first stream index of the next phase
	failed  atomic.Int64
	shed    atomic.Int64
	wrong   atomic.Int64
}

// batch sends stream batch i and checks every answer against the ladder.
func (g *loadGen) batch(i int, c *server.Client) bool {
	b := &g.pool[i%len(g.pool)]
	as, err := c.Do(b.qs)
	switch {
	case errors.Is(err, server.ErrOverloaded):
		g.shed.Add(1)
		return false
	case err != nil || len(as) != len(b.qs):
		g.failed.Add(1)
		return false
	}
	for j, a := range as {
		if a.Err != "" {
			g.failed.Add(1)
			return false
		}
		if a.Value != b.want[j] || a.Pit != b.wantPit[j] {
			g.wrong.Add(1)
			return false
		}
	}
	return true
}

// batchSample is the timing of one batch, in nanoseconds from the phase
// start. Latency runs from when the batch was due — its scheduled
// departure in an open loop, its actual departure in a closed one — so a
// stall shows in the batches queued behind it.
type batchSample struct {
	due    int64
	depart int64
	end    int64 // -1: not answered, or answered wrongly
}

// phaseSlices is how many slices a load phase is cut into.
const phaseSlices = 5

// finishPhase turns a phase's samples into its report, folds it into the
// result and, in a traced run, records one span per answered batch under
// the open phase span.
func (g *loadGen) finishPhase(p phaseReport, start time.Time, samples []batchSample) phaseReport {
	p.Failed, p.Wrong = int(g.failed.Swap(0)), int(g.wrong.Swap(0))
	p.Shed += int(g.shed.Swap(0))
	// The phase is also cut into slices by completion time; callers
	// report the fast quartile of the slices' completion rates and
	// median latencies (see summary in stats.go).
	width := p.Seconds / phaseSlices
	p.SliceOKPerS = make([]float64, phaseSlices)
	sliceLat := make([][]int64, phaseSlices)
	var lat, late []int64
	for i, s := range samples {
		if s.end < 0 {
			continue
		}
		lat = append(lat, s.end-s.due)
		late = append(late, s.depart-s.due)
		k := min(phaseSlices-1, int(float64(s.end)/1e9/width))
		p.SliceOKPerS[k] += 1 / width
		sliceLat[k] = append(sliceLat[k], s.end-s.due)
		g.tr.add("server.client.do", i, start.Add(time.Duration(s.depart)), start.Add(time.Duration(s.end)))
	}
	slices.Sort(lat)
	slices.Sort(late)
	p.OK = len(lat)
	p99 := exactQuantile(lat, 0.99)
	p.P50US = float64(exactQuantile(lat, 0.50)) / 1e3
	p.P99US = float64(p99) / 1e3
	p.BeyondP99 = len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > p99 })
	p.LateP99US = float64(exactQuantile(late, 0.99)) / 1e3
	for _, l := range sliceLat {
		if len(l) > 0 {
			slices.Sort(l)
			p.SliceP50US = append(p.SliceP50US, float64(exactQuantile(l, 0.50))/1e3)
		}
	}
	g.res.Attempted += p.Sent
	g.res.Failed += p.Sent - p.OK
	g.res.Phases = append(g.res.Phases, p)
	g.offset += p.Sent
	return p
}

// closed runs a closed loop: each client sends its next batch when the
// previous one is answered, so the phase measures saturation throughput.
func (g *loadGen) closed(name string, seconds float64) phaseReport {
	defer g.tr.begin("serve." + name)()
	var next atomic.Int64
	perClient := make([][]batchSample, len(g.clients))
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := g.offset + int(next.Add(1)-1)
				depart := int64(time.Since(start))
				s := batchSample{depart, depart, -1}
				if g.batch(i, c) {
					s.end = int64(time.Since(start))
				}
				perClient[w] = append(perClient[w], s)
			}
		}()
	}
	wg.Wait()
	p := phaseReport{Name: name, Seconds: time.Since(start).Seconds(), Sent: int(next.Load())}
	var samples []batchSample
	for _, ss := range perClient {
		samples = append(samples, ss...)
	}
	return g.finishPhase(p, start, samples)
}

// maxPending caps the batches an open loop keeps in flight, far beyond
// any sane backlog, so that a dead server cannot exhaust the generator's
// memory; batches refused at the cap are counted as shed.
const maxPending = 4096

// open runs an open loop: batches depart on a fixed schedule whether or
// not earlier ones were answered, each in its own goroutine so that a
// slow reply never delays the next departure.
//
// The schedule is kept by a clock goroutine that busy-waits on its own
// thread and writes one byte to a pipe when a batch is due; the
// dispatcher reads the pipe and starts the batches. Sleeping instead
// would depart every batch about a millisecond late where the kernel's
// timers are that coarse (they are on the seed host), which swamps a
// 40 us round trip; and handing goroutines straight from a spinning
// thread to the scheduler waits on the same timers. The pipe wakes the
// dispatcher through the network poller, as a request from outside would.
func (g *loadGen) open(name string, rate, seconds float64) (phaseReport, error) {
	defer g.tr.begin("serve." + name)()
	n := max(1, int(rate*seconds))
	samples := make([]batchSample, n)
	for i := range samples {
		samples[i].due, samples[i].end = int64(float64(i)/rate*float64(time.Second)), -1
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return phaseReport{}, err
	}
	defer pr.Close()
	start := time.Now()
	clockErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer pw.Close()
		tick := []byte{0}
		for i := range samples {
			for time.Since(start) < time.Duration(samples[i].due) {
			}
			if _, err := pw.Write(tick); err != nil {
				clockErr <- err
				return
			}
		}
		clockErr <- nil
	}()

	sem := make(chan struct{}, maxPending)
	p := phaseReport{Name: name, RatePerS: rate, Sent: n}
	var wg sync.WaitGroup
	var pendingMid int
	ticks := make([]byte, 256)
	for i := 0; i < n; {
		k, err := pr.Read(ticks)
		if err != nil {
			break // the clock failed and closed the pipe; its error is reported below
		}
		for ; k > 0 && i < n; i, k = i+1, k-1 {
			if i == n/2 {
				pendingMid = len(sem)
			}
			select {
			case sem <- struct{}{}:
			default:
				p.Shed++
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				s := &samples[i]
				s.depart = int64(time.Since(start))
				if g.batch(g.offset+i, g.clients[i%len(g.clients)]) {
					s.end = int64(time.Since(start))
				}
			}(i)
		}
	}
	p.BacklogGrew = len(sem) > 2*pendingMid+8
	wg.Wait()
	if err := <-clockErr; err != nil {
		return phaseReport{}, err
	}
	p.Seconds = time.Since(start).Seconds()
	return g.finishPhase(p, start, samples), nil
}
