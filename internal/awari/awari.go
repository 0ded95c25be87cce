// Package awari implements the game of awari (a mancala variant) as used
// by Bal & Allis, "Parallel Retrograde Analysis on a Distributed System"
// (SC95), including move generation, capture rules, the un-move generator
// needed by retrograde analysis, and the combinatorial position codec.
//
// # Board and perspective
//
// The board has 12 pits. Positions are always stored from the viewpoint of
// the player to move: pits 0..5 form the mover's row, pits 6..11 the
// opponent's row. Sowing proceeds counterclockwise, pit i to pit i+1 (mod
// 12). After a move the perspective is swapped (pit i of the child is pit
// (i+6) mod 12 of the post-move board), so a position needs no separate
// side-to-move bit.
//
// # Databases
//
// The n-stone database contains every distribution of exactly n stones
// over the 12 pits — C(n+11, 11) positions. Captures remove stones from
// the board, moving play into a smaller database; non-capturing moves stay
// within the same database. A capture takes at least two stones, so the
// n-stone database reads only databases of at most n-2 stones (see
// internal/ladder, which builds rungs n and n+1 side by side). The value of
// an n-stone position is the number of stones (0..n) the player to move
// captures from the board under optimal play.
package awari

import (
	"fmt"
	"strconv"
	"strings"
)

// Pits is the number of pits on an awari board.
const Pits = 12

// RowSize is the number of pits in one player's row.
const RowSize = Pits / 2

// MaxStones is the number of stones in the initial awari position and the
// largest database total supported.
const MaxStones = 48

// Board is an awari position from the mover's perspective: pits 0..5 are
// the mover's, 6..11 the opponent's.
type Board [Pits]int8

// Stones returns the total number of stones on the board.
func (b Board) Stones() int {
	n := 0
	for _, c := range b {
		n += int(c)
	}
	return n
}

// OwnStones returns the number of stones in the mover's row.
func (b Board) OwnStones() int {
	n := 0
	for i := 0; i < RowSize; i++ {
		n += int(b[i])
	}
	return n
}

// OppStones returns the number of stones in the opponent's row.
func (b Board) OppStones() int { return b.Stones() - b.OwnStones() }

// Swapped returns the board from the other player's perspective.
func (b Board) Swapped() Board {
	var s Board
	for i := 0; i < Pits; i++ {
		s[i] = b[(i+RowSize)%Pits]
	}
	return s
}

// String renders the board as two rows, opponent on top (reversed so that
// sowing runs right-to-left on top), mover on the bottom.
func (b Board) String() string {
	return fmt.Sprintf("[%2d %2d %2d %2d %2d %2d / %2d %2d %2d %2d %2d %2d]",
		b[11], b[10], b[9], b[8], b[7], b[6],
		b[0], b[1], b[2], b[3], b[4], b[5])
}

// GrandSlamRule selects how a capture that would take every stone in the
// opponent's row is treated. The awari convention (used when the game was
// ultimately solved) allows it; the oware convention forfeits the capture
// while the move itself stands.
type GrandSlamRule uint8

// Grand-slam conventions.
const (
	// GrandSlamAllowed lets a capture empty the opponent's row (awari).
	GrandSlamAllowed GrandSlamRule = iota
	// GrandSlamForfeit keeps the move but cancels the capture (oware).
	GrandSlamForfeit
)

func (r GrandSlamRule) String() string {
	switch r {
	case GrandSlamAllowed:
		return "allowed"
	case GrandSlamForfeit:
		return "forfeit"
	}
	return fmt.Sprintf("GrandSlamRule(%d)", uint8(r))
}

// ParseGrandSlam returns the rule String names: "allowed" or "forfeit".
// Any other name is an error, so a misspelt flag cannot select the
// wrong rule set.
func ParseGrandSlam(name string) (GrandSlamRule, error) {
	for _, r := range []GrandSlamRule{GrandSlamAllowed, GrandSlamForfeit} {
		if name == r.String() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("awari: unknown grand-slam rule %q (want allowed or forfeit)", name)
}

// Rules collects the variant switches of the awari family. The zero value
// is the standard awari rule set.
type Rules struct {
	// GrandSlam selects the grand-slam convention.
	GrandSlam GrandSlamRule
	// NoFeedObligation disables the rule that a player facing an empty
	// opponent row must play a move that feeds it when one exists.
	NoFeedObligation bool
}

// Standard is the rule set of awari as solved: grand slams capture, and
// the feeding obligation is in force.
var Standard = Rules{}

// sow distributes the stones of pit from around the board, skipping the
// origin pit, and returns the resulting board and the pit that received
// the last stone. It panics if the pit is empty or out of range — callers
// establish legality first.
func (r Rules) sow(b Board, from int) (Board, int) {
	if from < 0 || from >= Pits {
		panic(fmt.Sprintf("awari: sow from pit %d out of range", from))
	}
	s := int(b[from])
	if s == 0 {
		panic(fmt.Sprintf("awari: sow from empty pit %d of %v", from, b))
	}
	b[from] = 0
	pit := from
	last := from
	for ; s > 0; s-- {
		pit = (pit + 1) % Pits
		if pit == from {
			// The origin pit is skipped when sowing wraps around.
			pit = (pit + 1) % Pits
		}
		b[pit]++
		last = pit
	}
	return b, last
}

// capture applies the capture rule after a sow whose last stone landed in
// pit last, returning the post-capture board and the number of stones
// captured by the mover.
func (r Rules) capture(b Board, last int) (Board, int) {
	if last < RowSize {
		return b, 0 // last stone in own row: no capture
	}
	// Walk backwards from the landing pit through the opponent's row while
	// pits hold 2 or 3 stones.
	end := last
	for end >= RowSize && (b[end] == 2 || b[end] == 3) {
		end--
	}
	if end == last {
		return b, 0 // landing pit not capturable
	}
	captured := 0
	for i := end + 1; i <= last; i++ {
		captured += int(b[i])
	}
	if r.GrandSlam == GrandSlamForfeit {
		// If the capture would take every opponent stone, it is forfeited.
		rest := 0
		for i := RowSize; i < Pits; i++ {
			if i <= end || i > last {
				rest += int(b[i])
			}
		}
		if rest == 0 {
			return b, 0
		}
	}
	for i := end + 1; i <= last; i++ {
		b[i] = 0
	}
	return b, captured
}

// Apply plays the move from pit from (0..5) on board b and returns the
// child position (already swapped to the new mover's perspective) and the
// number of stones captured. It does not check the feeding obligation;
// use Legal or MoveList for full legality.
func (r Rules) Apply(b Board, from int) (child Board, captured int) {
	if from < 0 || from >= RowSize {
		panic(fmt.Sprintf("awari: move from pit %d outside mover's row", from))
	}
	after, last := r.sow(b, from)
	after, captured = r.capture(after, last)
	return after.Swapped(), captured
}

// feeds reports whether playing pit from on b leaves the opponent with at
// least one stone (after captures).
func (r Rules) feeds(b Board, from int) bool {
	child, _ := r.Apply(b, from)
	// child is from the opponent-turned-mover's perspective; his row is 0..5.
	return child.OwnStones() > 0
}

// MoveList appends the legal moves of b (pit numbers 0..5) to dst and
// returns it. The feeding obligation, when in force and satisfiable,
// restricts the list to feeding moves.
func (r Rules) MoveList(b Board, dst []int) []int {
	start := len(dst)
	for from := 0; from < RowSize; from++ {
		if b[from] > 0 {
			dst = append(dst, from)
		}
	}
	if r.NoFeedObligation || b.OppStones() > 0 {
		return dst
	}
	// Opponent is starved: only feeding moves are legal, if any exist.
	feeding := dst[:start]
	for _, from := range dst[start:] {
		if r.feeds(b, from) {
			feeding = append(feeding, from)
		}
	}
	return feeding
}

// Legal reports whether playing pit from on b is legal.
func (r Rules) Legal(b Board, from int) bool {
	if from < 0 || from >= RowSize || b[from] == 0 {
		return false
	}
	if r.NoFeedObligation || b.OppStones() > 0 {
		return true
	}
	// Opponent starved: only feeding moves are legal. If none exists the
	// position is terminal (the mover captures all remaining stones).
	return r.feeds(b, from)
}

// TerminalCapture returns the stones the mover captures when the position
// has no legal move: a mover with an empty row forfeits the board to the
// opponent (captures 0); a mover who cannot feed a starved opponent ends
// the game and captures all remaining stones (which all sit in his row).
func (r Rules) TerminalCapture(b Board) int {
	if b.OwnStones() == 0 {
		return 0
	}
	return b.Stones()
}

// ParseBoard parses a comma-separated list of twelve pit counts (mover's
// pits 0..5 first) into a Board.
func ParseBoard(spec string) (Board, error) {
	parts := strings.Split(spec, ",")
	var b Board
	if len(parts) != Pits {
		return b, fmt.Errorf("awari: board needs %d comma-separated pits, got %d", Pits, len(parts))
	}
	total := 0
	for i, p := range parts {
		c, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || c < 0 {
			return b, fmt.Errorf("awari: pit %d: %q is not a non-negative integer", i, p)
		}
		if c > MaxStones {
			return b, fmt.Errorf("awari: pit %d holds %d stones, max %d", i, c, MaxStones)
		}
		b[i] = int8(c)
		total += c
	}
	if total > MaxStones {
		return b, fmt.Errorf("awari: board holds %d stones, max %d", total, MaxStones)
	}
	return b, nil
}
