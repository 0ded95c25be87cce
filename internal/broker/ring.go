package broker

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring: every member contributes vnodes
// virtual points, and a key belongs to the first point at or clockwise
// of its hash. Placement is a pure function of the member set — the
// same members in any insertion order produce the same ring — and when
// a member joins or leaves, only the keys landing on its points move
// (≈1/n of the keyspace), which is what lets a fleet grow or lose a
// node without reshuffling every rung.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []point // sorted by (hash, member)
	members map[string]struct{}
}

type point struct {
	h      uint64
	member string
}

// DefaultVnodes spreads each member over enough points that the largest
// member's share stays within a few percent of 1/n (the share's
// coefficient of variation shrinks like 1/sqrt(vnodes)).
const DefaultVnodes = 512

// NewRing creates a ring with the given virtual-node count (0 means
// DefaultVnodes) and initial members.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes, members: map[string]struct{}{}}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	// Finalize with a splitmix64-style avalanche: FNV of short, similar
	// strings ("addr#0".."addr#511") leaves correlated high bits, which
	// would clump a member's points on one arc.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hashKey(fmt.Sprintf("%s#%d", member, v)), member})
	}
	r.sortLocked()
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortLocked orders points by hash, tie-broken by member so that ring
// order never depends on insertion order.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].member < r.points[j].member
	})
}

// Members returns the member set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members in ring order starting at the
// key's owner: the owner first, then the members the key would fall to
// if its owner (and each successor in turn) disappeared. This is both
// the replica set of a replicated key and the failover order of a
// sharded one.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	kh := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= kh })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		if m := r.points[(start+i)%len(r.points)].member; !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}
