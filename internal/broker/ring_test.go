package broker

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("awari-%d/key-%d", i%25, i)
	}
	return keys
}

// TestRingDeterministicPlacement: the ring is a pure function of its
// member set — insertion order must not matter.
func TestRingDeterministicPlacement(t *testing.T) {
	members := []string{"node-a:1", "node-b:2", "node-c:3", "node-d:4", "node-e:5"}
	a := NewRing(64, members...)
	shuffled := append([]string(nil), members...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b := NewRing(64, shuffled...)
	for _, k := range ringKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owner %q vs %q under a different insertion order", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingBalance: with enough vnodes no member hoards the keyspace.
func TestRingBalance(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r := NewRing(0, members...) // DefaultVnodes
	counts := map[string]int{}
	keys := ringKeys(20000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		share := float64(counts[m]) / float64(len(keys))
		if share < 0.10 || share > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys, want 10%%..45%% (counts %v)", m, 100*share, counts)
		}
	}
}

// TestRingJoinMovement: when a member joins, the only keys that move
// are the ones it takes over, and their fraction is about 1/n.
func TestRingJoinMovement(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	before := NewRing(0, members...)
	after := NewRing(0, append(append([]string(nil), members...), "e")...)

	keys := ringKeys(20000)
	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if oa != "e" {
			t.Fatalf("key %q moved %q -> %q, but only the joining member %q may gain keys", k, ob, oa, "e")
		}
	}
	frac := float64(moved) / float64(len(keys))
	if want := 1.0 / 5; frac < want/3 || frac > want*2 {
		t.Errorf("join moved %.1f%% of keys, want about %.1f%% (1/n)", 100*frac, 100*want)
	}
}

// TestRingLeaveMovement: when a member leaves, only its keys move.
func TestRingLeaveMovement(t *testing.T) {
	members := []string{"a", "b", "c", "d", "e"}
	before := NewRing(0, members...)
	after := NewRing(0, members...)
	after.Remove("c")

	keys := ringKeys(20000)
	orphans, moved := 0, 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == "c" {
			orphans++
			if oa == "c" {
				t.Fatalf("key %q still owned by the removed member", k)
			}
			continue
		}
		if ob != oa {
			moved++
			t.Fatalf("key %q moved %q -> %q although its owner did not leave", k, ob, oa)
		}
	}
	if orphans == 0 {
		t.Fatal("removed member owned no keys; the test proves nothing")
	}
	// Add/Remove are inverses: re-adding restores the original placement.
	after.Add("c")
	for _, k := range keys {
		if before.Owner(k) != after.Owner(k) {
			t.Fatalf("key %q: remove+add changed placement", k)
		}
	}
}

// TestRingOwnersReplicaSet: Owners walks the ring into distinct
// members, owner first — the replica set of a hot key and the failover
// order of a cold one.
func TestRingOwnersReplicaSet(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r := NewRing(0, members...)
	secondSeen := map[string]bool{}
	for _, k := range ringKeys(500) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners, want 3", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("key %q: Owners[0] %q != Owner %q", k, owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate replica %q in %v", k, o, owners)
			}
			seen[o] = true
		}
		secondSeen[owners[1]] = true
		// Failover consistency: the 2nd owner is what the key falls to
		// when the 1st leaves.
		reduced := NewRing(0, members...)
		reduced.Remove(owners[0])
		if got := reduced.Owner(k); got != owners[1] {
			t.Fatalf("key %q: after losing %q the owner is %q, but Owners predicted %q", k, owners[0], got, owners[1])
		}
	}
	if len(secondSeen) < 2 {
		t.Errorf("second replicas all landed on %v; replica sets do not spread", secondSeen)
	}
	// Asking for more replicas than members caps at the member count.
	if got := r.Owners("any", 10); len(got) != len(members) {
		t.Errorf("Owners(n>members) = %d members, want %d", len(got), len(members))
	}
	if empty := NewRing(0); empty.Owner("k") != "" {
		t.Error("empty ring returned an owner")
	}
}

// TestRingOwnersAllocatesOnlyResult: Owners runs once per distinct key
// of every routed batch, so its only allocation is the slice it returns.
func TestRingOwnersAllocatesOnlyResult(t *testing.T) {
	r := NewRing(0, "a", "b", "c", "d")
	if n := testing.AllocsPerRun(100, func() { r.Owners("awari-13", 4) }); n != 1 {
		t.Errorf("Owners allocates %v times per call, want 1 (its result)", n)
	}
}
