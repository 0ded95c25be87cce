// Package index provides combinatorial ranking and unranking of game
// positions onto dense integer intervals.
//
// Retrograde analysis stores one database entry per position, so every
// position must map to a unique index in [0, Size) with no holes. For
// awari-style games a position is "n stones distributed over k pits",
// i.e. a weak composition of n into k parts; this package implements a
// colexicographic bijection between such compositions and the interval
// [0, C(n+k-1, k-1)).
//
// The bijection is the classic combinatorial number system: scanning pits
// from last to first, a position's rank is the number of compositions that
// are colexicographically smaller. Equivalently, it is the reversed
// combinatorial-number-system rank of the k-1 bar positions in the stars-
// and-bars layout of the n stones over n+k-1 slots. Rank is O(k): one
// table read per bar. Unrank is O(n + k): one table read per slot. Both
// read a binomial table built once at package initialisation.
package index

import "fmt"

// MaxStones is the largest total stone count supported by the prebuilt
// binomial tables. Awari uses at most 48 stones; we leave headroom.
const MaxStones = 64

// MaxPits is the largest number of pits supported. Awari has 12.
const MaxPits = 16

// binom[n][k] = C(n, k) for 0 <= n <= MaxStones+MaxPits, 0 <= k <= MaxPits.
// The table is immutable after package initialisation.
var binom [MaxStones + MaxPits + 1][MaxPits + 1]uint64

func init() {
	for n := 0; n <= MaxStones+MaxPits; n++ {
		binom[n][0] = 1
		for k := 1; k <= MaxPits && k <= n; k++ {
			binom[n][k] = binom[n-1][k-1] + binom[n-1][k]
		}
	}
}

// Binomial returns C(n, k). It panics if the arguments fall outside the
// prebuilt table, which callers avoid by respecting MaxStones and MaxPits.
func Binomial(n, k int) uint64 {
	if n < 0 || k < 0 || n > MaxStones+MaxPits || k > MaxPits {
		panic(fmt.Sprintf("index: Binomial(%d, %d) out of table range", n, k))
	}
	if k > n {
		return 0
	}
	return binom[n][k]
}

// Space is a rank/unrank codec for all distributions of exactly Stones
// stones over Pits pits.
type Space struct {
	Pits   int
	Stones int
	size   uint64
}

// NewSpace returns the codec for distributions of stones over pits.
func NewSpace(pits, stones int) (*Space, error) {
	if pits < 1 || pits > MaxPits {
		return nil, fmt.Errorf("index: pits %d out of range [1, %d]", pits, MaxPits)
	}
	if stones < 0 || stones > MaxStones {
		return nil, fmt.Errorf("index: stones %d out of range [0, %d]", stones, MaxStones)
	}
	return &Space{
		Pits:   pits,
		Stones: stones,
		size:   Binomial(stones+pits-1, pits-1),
	}, nil
}

// MustSpace is NewSpace for statically known-valid arguments.
func MustSpace(pits, stones int) *Space {
	s, err := NewSpace(pits, stones)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the number of distinct distributions, C(stones+pits-1, pits-1).
func (s *Space) Size() uint64 { return s.size }

// Rank maps a distribution to its index in [0, Size). The slice must have
// exactly Pits non-negative entries summing to Stones; Rank panics
// otherwise (an internal invariant violation, not a user input error).
//
// The encoding is stars and bars: lay the stones of pit 0, a bar, the
// stones of pit 1, a bar, ... over Stones+Pits-1 slots. Bar i (1 <= i <
// Pits) then sits at slot p_i = (stones in pits 0..i-1) + i-1, and the
// colex rank is the reversed combinatorial-number-system rank of the bar
// set: Size-1 - sum_i C(p_i, i).
func (s *Space) Rank(pits []int) uint64 {
	if len(pits) != s.Pits {
		panic(fmt.Sprintf("index: Rank got %d pits, space has %d", len(pits), s.Pits))
	}
	var sum uint64
	placed := 0
	for i, c := range pits[:s.Pits-1] {
		if c < 0 || c > s.Stones-placed {
			panic(fmt.Sprintf("index: Rank pit %d holds %d with %d remaining", i, c, s.Stones-placed))
		}
		placed += c
		sum += binom[placed+i][i+1]
	}
	if last := pits[s.Pits-1]; last != s.Stones-placed {
		panic(fmt.Sprintf("index: Rank pits sum mismatch, pit %d holds %d, expected %d", s.Pits-1, last, s.Stones-placed))
	}
	return s.size - 1 - sum
}

// Unrank writes the distribution with the given rank into dst, which must
// have length Pits. It panics if r >= Size.
//
// It decodes the bar set of Rank greedily from the top slot down: with k
// bars still to place and t = Size-1-r of the rank left, slot p holds bar
// k exactly when C(p, k) <= t. Each slot costs one table load and one
// conditional subtract, and the walk visits all Stones+Pits-1 slots with
// no data-dependent exit.
func (s *Space) Unrank(r uint64, dst []int) {
	if len(dst) != s.Pits {
		panic(fmt.Sprintf("index: Unrank got %d pits, space has %d", len(dst), s.Pits))
	}
	if r >= s.size {
		panic(fmt.Sprintf("index: Unrank rank %d out of range [0, %d)", r, s.size))
	}
	t := s.size - 1 - r
	k := s.Pits - 1
	run := 0 // stones seen since the last bar: the count of pit k
	for p := s.Stones + s.Pits - 2; p >= 0; p-- {
		b := binom[p][k]
		bar := 0
		if b <= t {
			bar = 1
		}
		t -= b & -uint64(bar)
		// Stale until bar k is found; the bar's own slot writes the
		// final count and moves on to pit k-1.
		dst[k] = run
		run = (run + 1) &^ -bar
		k -= bar
	}
	dst[0] = run
}
