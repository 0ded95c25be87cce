// Board-word half: the awari row-word constants with every invariant
// seeded wrong — a broadcast that misses a pit, a mask one byte too wide,
// and a stone bound that would reach a pit byte's top bit.
package ra

const (
	RowSize          = 6
	MaxStones        = 128              // want `MaxStones 128 is not below 128`
	rowMask   uint64 = 0xFFFFFFFFFFFFFF // want `rowMask 0xffffffffffffff does not cover exactly the 6 pit bytes`
	rowLo     uint64 = 0x0101010101     // want `rowLo 0x101010101 is not 1 replicated into exactly the 6 pit bytes`
)
