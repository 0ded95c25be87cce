package analysis

import (
	"fmt"
	"go/constant"
	"go/types"
	"math/bits"
)

// LaneConst cross-checks the scalar packed-uint32 state layout constants
// (worker.go) against the SWAR byte-lane layout constants (swar.go), so
// the two bit layouts can never silently diverge — the structural half of
// the guarantee TestSWARKernelParity checks (bit-identical scalar and
// SWAR databases). It also checks the board-word layout of the awari run
// generators (one byte per pit, one uint64 per row).
//
// The invariants are algebraic, so the analyzer recomputes them from the
// constant values rather than comparing against hard-coded numbers:
// fields must tile (value at bit 0, counter directly above, final flag as
// the top bit of the word), masks must match their shifts, the 64-bit
// broadcast masks must be exact 8-lane replications of the byte
// constants, and the two kernels must agree structurally. A board word
// must broadcast and mask exactly RowSize pit bytes, and MaxStones must
// stay below 128 so no pit byte ever sets its top bit — the zero-byte and
// borrow tests on board words rely on that.
var LaneConst = &Analyzer{
	Name: "laneconst",
	Doc:  "scalar packed-state, SWAR lane and awari board-word layout constants must agree",
	Run:  runLaneConst,
}

// laneConstNames lists every layout constant the analyzer understands;
// a package defining some but not all of a kernel's group is reported,
// because a missing constant usually means a rename broke the check.
var laneConstScalar = []string{"stateValueMask", "stateCountShift", "stateCountMask", "stateFinalBit"}
var laneConstSWAR = []string{
	"laneValueBits", "laneValueMask", "laneCntShift", "laneCntField",
	"laneCntOne", "laneFinalBit", "laneMaxCnt", "lanesPerWord",
	"laneLo", "laneHi", "laneVal8", "laneCnt8", "laneCnt18",
}

// laneConstBoard is the board-word group; rowLo or rowMask marks a
// package as using the layout.
var laneConstBoard = []string{"rowLo", "rowMask", "RowSize", "MaxStones"}

func runLaneConst(pass *Pass) error {
	consts := map[string]uint64{}
	scope := pass.Pkg.Scope()
	lookup := func(name string) (uint64, bool) {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			return 0, false
		}
		v, exact := constant.Uint64Val(constant.ToInt(c.Val()))
		if !exact {
			return 0, false
		}
		return v, true
	}
	anyScalar, anySWAR := false, false
	for _, n := range laneConstScalar {
		if v, ok := lookup(n); ok {
			consts[n] = v
			anyScalar = true
		}
	}
	for _, n := range laneConstSWAR {
		if v, ok := lookup(n); ok {
			consts[n] = v
			anySWAR = true
		}
	}
	anyBoard := false
	for _, n := range laneConstBoard {
		if v, ok := lookup(n); ok {
			consts[n] = v
			anyBoard = anyBoard || n == "rowLo" || n == "rowMask"
		}
	}
	if !anyScalar && !anySWAR && !anyBoard {
		return nil // not a kernel package
	}

	report := func(anchor string, format string, args ...any) {
		pos := pass.Files[0].Pos()
		if obj := scope.Lookup(anchor); obj != nil {
			pos = obj.Pos()
		}
		pass.Report(pos, fmt.Sprintf(format, args...))
	}
	missing := func(group []string, kernel string) bool {
		bad := false
		for _, n := range group {
			if _, ok := consts[n]; !ok {
				report(group[0], "%s layout constant %s is missing; the %s layout can no longer be cross-checked", kernel, n, kernel)
				bad = true
			}
		}
		return bad
	}

	if anyScalar && !missing(laneConstScalar, "scalar") {
		checkScalarLayout(report, consts)
	}
	if anySWAR && !missing(laneConstSWAR, "SWAR") {
		checkSWARLayout(report, consts)
	}
	if anyScalar && anySWAR {
		checkCrossKernel(report, consts)
	}
	if anyBoard && !missing(laneConstBoard, "board-word") {
		checkBoardLayout(report, consts)
	}
	checkGameContract(pass, report, consts)
	return nil
}

// isMask reports whether v is of the form 2^k-1, k >= 1, and returns k.
func isMask(v uint64) (int, bool) {
	if v == 0 || v&(v+1) != 0 {
		return 0, false
	}
	return bits.OnesCount64(v), true
}

type reportf func(anchor string, format string, args ...any)

func checkScalarLayout(report reportf, c map[string]uint64) {
	vbits, ok := isMask(c["stateValueMask"])
	if !ok {
		report("stateValueMask", "stateValueMask %#x is not a contiguous low mask", c["stateValueMask"])
		return
	}
	cbits, ok := isMask(c["stateCountMask"])
	if !ok {
		report("stateCountMask", "stateCountMask %#x is not a contiguous low mask", c["stateCountMask"])
		return
	}
	if c["stateCountShift"] != uint64(vbits) {
		report("stateCountShift", "stateCountShift %d does not sit directly above the %d-bit value field; the counter would overlap or leave a gap", c["stateCountShift"], vbits)
	}
	if c["stateFinalBit"] != 1<<31 {
		report("stateFinalBit", "stateFinalBit %#x is not the top bit of the packed uint32", c["stateFinalBit"])
	}
	if uint64(vbits+cbits+1) > 32 {
		report("stateValueMask", "scalar fields need %d bits, more than the packed uint32 has", vbits+cbits+1)
	}
	if top := c["stateCountMask"] << c["stateCountShift"]; top&c["stateFinalBit"] != 0 || c["stateValueMask"]&(top|c["stateFinalBit"]) != 0 {
		report("stateCountMask", "scalar value/counter/final fields overlap")
	}
}

func checkSWARLayout(report reportf, c map[string]uint64) {
	if c["lanesPerWord"] != 8 {
		report("lanesPerWord", "lanesPerWord is %d; the byte-lane kernel packs exactly 8 one-byte lanes per uint64", c["lanesPerWord"])
	}
	if want := uint64(1)<<c["laneValueBits"] - 1; c["laneValueMask"] != want {
		report("laneValueMask", "laneValueMask %#x does not match laneValueBits %d (want %#x)", c["laneValueMask"], c["laneValueBits"], want)
	}
	if c["laneCntShift"] != c["laneValueBits"] {
		report("laneCntShift", "laneCntShift %d does not sit directly above the %d-bit value field", c["laneCntShift"], c["laneValueBits"])
	}
	if want := uint64(1) << c["laneCntShift"]; c["laneCntOne"] != want {
		report("laneCntOne", "laneCntOne %#x is not 1<<laneCntShift (%#x): counter decrement would corrupt neighbouring fields", c["laneCntOne"], want)
	}
	cnt, ok := isMask(c["laneMaxCnt"])
	if !ok {
		report("laneMaxCnt", "laneMaxCnt %d is not 2^k-1; the counter field would have unreachable encodings", c["laneMaxCnt"])
		return
	}
	if want := c["laneMaxCnt"] << c["laneCntShift"]; c["laneCntField"] != want {
		report("laneCntField", "laneCntField %#x does not equal laneMaxCnt<<laneCntShift (%#x)", c["laneCntField"], want)
	}
	if want := uint64(1) << (c["laneCntShift"] + uint64(cnt)); c["laneFinalBit"] != want {
		report("laneFinalBit", "laneFinalBit %#x does not sit directly above the counter field (want %#x)", c["laneFinalBit"], want)
	}
	if c["laneFinalBit"] != 1<<7 {
		report("laneFinalBit", "laneFinalBit %#x is not the top bit of the lane byte", c["laneFinalBit"])
	}
	if c["laneValueMask"]&c["laneCntField"] != 0 || (c["laneValueMask"]|c["laneCntField"])&c["laneFinalBit"] != 0 {
		report("laneValueMask", "SWAR value/counter/final fields overlap")
	}
	const rep = 0x0101010101010101
	for _, pair := range [...]struct {
		broad, lane string
		laneVal     uint64
	}{
		{"laneLo", "1", 1},
		{"laneHi", "laneFinalBit", c["laneFinalBit"]},
		{"laneVal8", "laneValueMask", c["laneValueMask"]},
		{"laneCnt8", "laneCntField", c["laneCntField"]},
		{"laneCnt18", "laneCntOne", c["laneCntOne"]},
	} {
		if want := pair.laneVal * rep; c[pair.broad] != want {
			report(pair.broad, "%s %#x is not %s replicated into all 8 lanes (want %#x): the word-parallel and per-lane paths would diverge", pair.broad, c[pair.broad], pair.lane, want)
		}
	}
}

func checkBoardLayout(report reportf, c map[string]uint64) {
	lanes := c["RowSize"]
	if lanes == 0 || lanes > 8 {
		report("RowSize", "RowSize %d pit bytes do not fit one uint64 row word", lanes)
		return
	}
	var lo uint64
	for k := range lanes {
		lo |= 1 << (8 * k)
	}
	if c["rowLo"] != lo {
		report("rowLo", "rowLo %#x is not 1 replicated into exactly the %d pit bytes of a row word (want %#x): row sums and capture tests would miss or invent pits", c["rowLo"], lanes, lo)
	}
	if want := lo * 0xFF; c["rowMask"] != want {
		report("rowMask", "rowMask %#x does not cover exactly the %d pit bytes of a row word (want %#x)", c["rowMask"], lanes, want)
	}
	if c["MaxStones"] >= 128 {
		report("MaxStones", "MaxStones %d is not below 128: a pit byte could set its top bit, which the board-word zero-byte and borrow tests read as a flag", c["MaxStones"])
	}
}

func checkCrossKernel(report reportf, c map[string]uint64) {
	// Both kernels must put the value field at bit 0 with the counter
	// directly above it (checked per kernel) and the final flag as the
	// word's top bit; and the scalar value field must be able to hold any
	// lane value so the kernels finalize identical values.
	if sv, ok1 := isMask(c["stateValueMask"]); ok1 {
		if lv, ok2 := isMask(c["laneValueMask"]); ok2 && lv > sv {
			report("laneValueMask", "SWAR value field (%d bits) is wider than the scalar value field (%d bits): lane values could not round-trip through the scalar kernel", lv, sv)
		}
	}
	if c["laneMaxCnt"] > c["stateCountMask"] {
		report("laneMaxCnt", "SWAR counter ceiling %d exceeds the scalar counter mask %#x: a SWAR-legal game could overflow the scalar kernel", c["laneMaxCnt"], c["stateCountMask"])
	}
}

// checkGameContract verifies the packaged cross-package constant against
// package game when it is imported: the packed counter ceiling game
// advertises must equal the scalar layout's.
func checkGameContract(pass *Pass, report reportf, c map[string]uint64) {
	mask, ok := c["stateCountMask"]
	if !ok {
		return
	}
	for _, imp := range pass.Pkg.Imports() {
		if !hasPathSuffix(imp.Path(), "internal/game") && imp.Path() != "internal/game" {
			continue
		}
		gc, ok := imp.Scope().Lookup("MaxPackedSuccessors").(*types.Const)
		if !ok {
			continue
		}
		v, exact := constant.Uint64Val(constant.ToInt(gc.Val()))
		if exact && v != mask {
			report("stateCountMask", "game.MaxPackedSuccessors %d disagrees with the scalar counter mask %#x: game.Validate would admit games the packed counter cannot hold", v, mask)
		}
	}
}
