package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// goldenRungs is how far golden.json reaches: beyond every scale's sizes,
// so a later move to bigger rungs needs no regeneration.
const goldenRungs = 15

//go:embed golden.json
var goldenData []byte

// goldenRung pins one finished awari database (Standard rules,
// LoopOwnSide), as the scalar ra.SolveSequential produced it.
type goldenRung struct {
	Stones        int    `json:"stones"`
	Positions     uint64 `json:"positions"`
	ValuesFNV64   string `json:"values_fnv64"`
	Waves         int    `json:"waves"`
	LoopPositions uint64 `json:"loop_positions"`
}

// goldenSim pins the exact virtual-time results of the simulated cluster
// on one rung: they must not move when the wave driver is refactored.
type goldenSim struct {
	Stones           int    `json:"stones"`
	VirtualNS64      int64  `json:"virtual_ns_p64_combine100"`
	VirtualNS1       int64  `json:"virtual_ns_p1"`
	DataMsgs100      uint64 `json:"data_msgs_combine100"`
	DataMsgs1        uint64 `json:"data_msgs_combine1"`
	ProtocolMsgs     uint64 `json:"protocol_msgs_combine100"`
	Events           uint64 `json:"events_combine100"`
	CombineItems     uint64 `json:"combine_items"`
	CombineFlushes   uint64 `json:"combine_flushes"`
	LocalUpdates     uint64 `json:"local_updates"`
	RemoteUpdates    uint64 `json:"remote_updates"`
	NodeBusyNSSummed int64  `json:"node_busy_ns_summed"`
}

type goldenFile struct {
	Rungs []goldenRung `json:"rungs"`
	Sims  []goldenSim  `json:"sims"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenData, &g); err != nil {
		panic("rabench: golden.json: " + err.Error())
	}
	return g
}()

func valuesFNV64(values []game.Value) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 8192)
	for _, v := range values {
		buf = append(buf, byte(v), byte(v>>8))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

func describeRung(stones int, r *ra.Result) goldenRung {
	return goldenRung{stones, uint64(len(r.Values)), valuesFNV64(r.Values), r.Waves, r.LoopPositions}
}

// matchesGolden reports whether a solved rung is bit-identical to the
// golden one.
func matchesGolden(stones int, r *ra.Result) bool {
	return stones < len(golden.Rungs) && describeRung(stones, r) == golden.Rungs[stones]
}

// ladderMatchesGolden checks every rung of a built ladder.
func ladderMatchesGolden(l *ladder.Ladder) bool {
	for n := 0; n <= l.MaxStones(); n++ {
		if !matchesGolden(n, l.Result(n)) {
			return false
		}
	}
	return true
}

// describeSim condenses simResults' three runs.
func describeSim(stones int, results [3]*ra.Result) goldenSim {
	p64, p64c1, p1 := results[0].Sim, results[1].Sim, results[2].Sim
	var busy int64
	for _, n := range p64.Nodes {
		busy += int64(n.Busy)
	}
	return goldenSim{
		Stones:           stones,
		VirtualNS64:      int64(p64.Duration),
		VirtualNS1:       int64(p1.Duration),
		DataMsgs100:      p64.DataMessages,
		DataMsgs1:        p64c1.DataMessages,
		ProtocolMsgs:     p64.ProtocolMessages,
		Events:           p64.Events,
		CombineItems:     p64.Combining.Items,
		CombineFlushes:   p64.Combining.Flushes,
		LocalUpdates:     p64.LocalUpdates,
		RemoteUpdates:    p64.RemoteUpdates,
		NodeBusyNSSummed: busy,
	}
}

func goldenSimFor(stones int) (goldenSim, bool) {
	for _, s := range golden.Sims {
		if s.Stones == stones {
			return s, true
		}
	}
	return goldenSim{}, false
}

// writeGolden regenerates golden.json: rungs from the scalar
// ra.SolveSequential (through Sequential{Kernel: KernelScalar}, the same
// function), sims from the Distributed engine at every scale's SimRung.
func writeGolden(w io.Writer) error {
	var g goldenFile
	l, err := ladder.Build(awariConfig, goldenRungs, scalarEngine, func(n int, r *ra.Result) {
		g.Rungs = append(g.Rungs, describeRung(n, r))
	})
	if err != nil {
		return err
	}
	for _, sz := range []sizes{scales["smoke"], scales["bench"]} {
		results, err := simResults(l, sz.SimRung)
		if err != nil {
			return err
		}
		g.Sims = append(g.Sims, describeSim(sz.SimRung, results))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(g)
}
