package ra

import (
	"fmt"

	"retrograde/internal/game"
)

// Batched is Concurrent combining Batch update runs per channel send:
// the batch-size ablations of this package's external tests.
type Batched struct {
	Concurrent
	Batch int
}

// Name implements Engine.
func (b Batched) Name() string { return fmt.Sprintf("%s batch=%d", b.Concurrent.Name(), b.Batch) }

// Solve implements Engine.
func (b Batched) Solve(g game.Game) (*Result, error) { return b.solve(g, b.Batch) }
