package index

import (
	"slices"
	"testing"
)

// rankRef and unrankRef are the linear-scan codec the package shipped
// with: pits are processed from last to first through the range-checked
// Binomial, and Unrank searches each pit's count by counting up until the
// prefix block passes the rank. They are kept only as the reference
// TestCodecMatchesRefExhaustive and FuzzSpaceCodec compare the bar-walk
// Rank and Unrank against; both must agree on every distribution.
func rankRef(s *Space, pits []int) uint64 {
	var r uint64
	rem := s.Stones
	for i := s.Pits - 1; i >= 1; i-- {
		c := pits[i]
		r += Binomial(rem+i, i) - Binomial(rem-c+i, i)
		rem -= c
	}
	return r
}

func unrankRef(s *Space, r uint64, dst []int) {
	rem := s.Stones
	for i := s.Pits - 1; i >= 1; i-- {
		base := Binomial(rem+i, i)
		c := 0
		for base-Binomial(rem-c-1+i, i) <= r {
			c++
		}
		r -= base - Binomial(rem-c+i, i)
		dst[i] = c
		rem -= c
	}
	dst[0] = rem
}

// checkCodec compares Unrank and Rank at rank r of s with the reference
// codec, in both directions.
func checkCodec(t *testing.T, s *Space, r uint64, got, want []int) {
	t.Helper()
	s.Unrank(r, got)
	unrankRef(s, r, want)
	if !slices.Equal(got, want) {
		t.Fatalf("Space(%d pits, %d stones).Unrank(%d) = %v, reference %v", s.Pits, s.Stones, r, got, want)
	}
	if back, ref := s.Rank(want), rankRef(s, want); back != r || ref != r {
		t.Fatalf("Space(%d pits, %d stones).Rank(%v) = %d, reference %d, want %d", s.Pits, s.Stones, want, back, ref, r)
	}
}

// TestCodecMatchesRefExhaustive walks every rank of the 12-pit spaces up
// to 10 stones — awari's geometry through rung 10 — and of every small
// pit count, against the reference codec.
func TestCodecMatchesRefExhaustive(t *testing.T) {
	for pits := 1; pits <= MaxPits; pits++ {
		maxStones := 10
		if pits != 12 {
			maxStones = 4
		}
		got, want := make([]int, pits), make([]int, pits)
		for stones := 0; stones <= maxStones; stones++ {
			s := MustSpace(pits, stones)
			for r := uint64(0); r < s.Size(); r++ {
				checkCodec(t, s, r, got, want)
			}
		}
	}
}

// TestCodecTableCorners checks the first and last rank of every space the
// table covers, where the walk touches its extreme rows and columns.
func TestCodecTableCorners(t *testing.T) {
	for pits := 1; pits <= MaxPits; pits++ {
		got, want := make([]int, pits), make([]int, pits)
		for stones := 0; stones <= MaxStones; stones++ {
			s := MustSpace(pits, stones)
			checkCodec(t, s, 0, got, want)
			checkCodec(t, s, s.Size()-1, got, want)
			checkCodec(t, s, s.Size()/2, got, want)
		}
	}
}

// FuzzSpaceCodec is the differential target for the bar-walk codec: for
// any space the table covers and any rank in it, Unrank and Rank must
// agree with the linear-scan reference.
func FuzzSpaceCodec(f *testing.F) {
	f.Add(uint8(12), uint8(13), uint64(1234567))
	f.Add(uint8(1), uint8(0), uint64(0))
	f.Add(uint8(16), uint8(64), ^uint64(0))
	f.Add(uint8(12), uint8(48), uint64(279871768994))
	f.Fuzz(func(t *testing.T, pitsRaw, stonesRaw uint8, r uint64) {
		pits := 1 + int(pitsRaw)%MaxPits
		stones := int(stonesRaw) % (MaxStones + 1)
		s := MustSpace(pits, stones)
		checkCodec(t, s, r%s.Size(), make([]int, pits), make([]int, pits))
	})
}
