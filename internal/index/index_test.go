package index

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{4, 2, 6},
		{5, 2, 10},
		{12, 6, 924},
		{23, 11, 1352078},
		{24, 11, 2496144},
		{10, 11, 0},
		{48 + 11, 11, 279871768995},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	for n := 1; n <= MaxStones+MaxPits; n++ {
		for k := 1; k <= MaxPits; k++ {
			if got := Binomial(n, k); got != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d, %d) = %d", n, k, got)
			}
		}
	}
}

func TestBinomialSymmetryInRange(t *testing.T) {
	// C(n, k) == C(n, n-k) whenever both sides are within the table.
	for n := 0; n <= 2*MaxPits; n++ {
		for k := 0; k <= MaxPits && n-k <= MaxPits && n-k >= 0; k++ {
			if Binomial(n, k) != Binomial(n, n-k) {
				t.Fatalf("symmetry fails at C(%d, %d)", n, k)
			}
		}
	}
}

func TestBinomialPanicsOutOfRange(t *testing.T) {
	for _, nk := range [][2]int{{-1, 0}, {0, -1}, {MaxStones + MaxPits + 1, 0}, {0, MaxPits + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Binomial(%d, %d) did not panic", nk[0], nk[1])
				}
			}()
			Binomial(nk[0], nk[1])
		}()
	}
}

func TestNewSpaceValidation(t *testing.T) {
	for _, ps := range [][2]int{{0, 1}, {MaxPits + 1, 1}, {1, -1}, {1, MaxStones + 1}} {
		if _, err := NewSpace(ps[0], ps[1]); err == nil {
			t.Errorf("NewSpace(%d, %d) succeeded, want error", ps[0], ps[1])
		}
	}
	if _, err := NewSpace(12, 48); err != nil {
		t.Errorf("NewSpace(12, 48) failed: %v", err)
	}
}

func TestSpaceSizes(t *testing.T) {
	cases := []struct {
		pits, stones int
		want         uint64
	}{
		{2, 2, 3},
		{3, 2, 6},
		{12, 0, 1},
		{12, 1, 12},
		{12, 2, 78},
		{12, 13, 2496144}, // C(24, 11): the paper's 13-stone awari space
	}
	for _, c := range cases {
		if got := MustSpace(c.pits, c.stones).Size(); got != c.want {
			t.Errorf("Space(%d pits, %d stones).Size() = %d, want %d", c.pits, c.stones, got, c.want)
		}
	}
}

// TestRankBijectionExhaustive walks every rank of several small spaces and
// checks Unrank/Rank round-trip, that unranked distributions are valid, and
// that consecutive ranks yield distinct distributions.
func TestRankBijectionExhaustive(t *testing.T) {
	for _, ps := range [][2]int{{1, 5}, {2, 7}, {3, 6}, {4, 5}, {6, 4}, {12, 3}, {5, 0}} {
		s := MustSpace(ps[0], ps[1])
		pits := make([]int, s.Pits)
		seen := make(map[string]bool, s.Size())
		for r := uint64(0); r < s.Size(); r++ {
			s.Unrank(r, pits)
			sum := 0
			for _, c := range pits {
				if c < 0 {
					t.Fatalf("space %v rank %d: negative pit %v", ps, r, pits)
				}
				sum += c
			}
			if sum != s.Stones {
				t.Fatalf("space %v rank %d: total %d, want %d", ps, r, sum, s.Stones)
			}
			if got := s.Rank(pits); got != r {
				t.Fatalf("space %v: Rank(Unrank(%d)) = %d", ps, r, got)
			}
			key := string(encodePits(pits))
			if seen[key] {
				t.Fatalf("space %v rank %d: duplicate distribution %v", ps, r, pits)
			}
			seen[key] = true
		}
	}
}

func encodePits(pits []int) []byte {
	b := make([]byte, len(pits))
	for i, c := range pits {
		b[i] = byte(c)
	}
	return b
}

// TestRankRandomLarge spot-checks the round trip on the real awari space
// sizes used by the experiments, where exhaustive walks are too slow.
func TestRankRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, stones := range []int{10, 13, 20, 35, 48} {
		s := MustSpace(12, stones)
		pits := make([]int, 12)
		for trial := 0; trial < 2000; trial++ {
			r := rng.Uint64() % s.Size()
			s.Unrank(r, pits)
			if got := s.Rank(pits); got != r {
				t.Fatalf("stones %d: Rank(Unrank(%d)) = %d", stones, r, got)
			}
		}
	}
}

// TestRankRandomDistributions generates random distributions directly and
// checks Unrank(Rank(p)) == p, the other direction of the bijection.
func TestRankRandomDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, stones := range []int{5, 13, 24, 48} {
		s := MustSpace(12, stones)
		for trial := 0; trial < 2000; trial++ {
			pits := randomDistribution(rng, 12, stones)
			r := s.Rank(pits)
			if r >= s.Size() {
				t.Fatalf("stones %d: Rank(%v) = %d out of range", stones, pits, r)
			}
			back := make([]int, 12)
			s.Unrank(r, back)
			for i := range pits {
				if pits[i] != back[i] {
					t.Fatalf("stones %d: Unrank(Rank(%v)) = %v", stones, pits, back)
				}
			}
		}
	}
}

func randomDistribution(rng *rand.Rand, pits, stones int) []int {
	d := make([]int, pits)
	for i := 0; i < stones; i++ {
		d[rng.Intn(pits)]++
	}
	return d
}

// TestRankColexOrder pins down the documented ordering on a tiny space so
// the encoding cannot silently change (databases on disk depend on it).
func TestRankColexOrder(t *testing.T) {
	s := MustSpace(3, 2)
	want := [][]int{{2, 0, 0}, {1, 1, 0}, {0, 2, 0}, {1, 0, 1}, {0, 1, 1}, {0, 0, 2}}
	pits := make([]int, 3)
	for r, w := range want {
		s.Unrank(uint64(r), pits)
		for i := range w {
			if pits[i] != w[i] {
				t.Fatalf("rank %d = %v, want %v", r, pits, w)
			}
		}
	}
}

func TestRankPanicsOnBadInput(t *testing.T) {
	s := MustSpace(3, 4)
	bad := [][]int{
		{1, 1},             // wrong length
		{5, 0, 0},          // sum too large
		{1, 1, 1},          // sum too small
		{-1, 3, 2},         // negative
		{0, 5, -1},         // negative later pit
		{1, 1, 1, 1},       // wrong length (long)
		{0, 0, 0, 0, 0, 4}, // wrong length
		{0, 0, 5},          // last pit too large
		{3, 1, -1},         // last pit negative
	}
	for _, pits := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rank(%v) did not panic", pits)
				}
			}()
			s.Rank(pits)
		}()
	}
	for name, call := range map[string]func(){
		"Unrank(Size())":     func() { s.Unrank(s.Size(), make([]int, 3)) },
		"Unrank(MaxUint64)":  func() { s.Unrank(^uint64(0), make([]int, 3)) },
		"Unrank into 2 pits": func() { s.Unrank(0, make([]int, 2)) },
		"Unrank into 4 pits": func() { s.Unrank(0, make([]int, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestQuickRankRoundTrip is a property-based round trip over random pit
// vectors on the full awari geometry.
func TestQuickRankRoundTrip(t *testing.T) {
	f := func(seed int64, stonesRaw uint8) bool {
		stones := int(stonesRaw % 49) // 0..48
		rng := rand.New(rand.NewSource(seed))
		s := MustSpace(12, stones)
		pits := randomDistribution(rng, 12, stones)
		back := make([]int, 12)
		s.Unrank(s.Rank(pits), back)
		for i := range pits {
			if pits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRank(b *testing.B) {
	s := MustSpace(12, 13)
	pits := make([]int, 12)
	s.Unrank(s.Size()/2, pits)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Rank(pits)
	}
}

func BenchmarkUnrank(b *testing.B) {
	s := MustSpace(12, 13)
	pits := make([]int, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Unrank(uint64(i)%s.Size(), pits)
	}
}
