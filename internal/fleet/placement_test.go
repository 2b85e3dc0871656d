package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/judge"
)

func testKeys(n int) []judge.PromptKey {
	keys := make([]judge.PromptKey, n)
	for i := range keys {
		keys[i] = judge.KeyOf(fmt.Sprintf("prompt-%d", i))
	}
	return keys
}

// placementFleets are the replica lists the placement tests run over.
var placementFleets = []struct {
	name  string
	addrs []string
}{
	{"one", []string{"r1"}},
	{"two", []string{"127.0.0.1:8843", "127.0.0.1:8844"}},
	{"three", []string{"r1", "r2", "r3"}},
	{"five", []string{"10.0.0.1:8841", "10.0.0.2:8841", "10.0.0.3:8841", "10.0.0.4:8841", "10.0.0.5:8841"}},
}

// addrRouter builds a Router over fakes at the given addresses.
func addrRouter(t *testing.T, addrs []string) *Router {
	t.Helper()
	fakes := make([]*fakeReplica, len(addrs))
	for i, a := range addrs {
		fakes[i] = newFakeReplica(a)
	}
	return testRouter(t, fakes...)
}

// successorAddrs is a key's whole successor order, as addresses.
func successorAddrs(rt *Router, key judge.PromptKey) []string {
	var out []string
	h := keyHash(key)
	for i := rt.next(h, -1); i >= 0; i = rt.next(h, i) {
		out = append(out, rt.replicas[i].addr)
	}
	return out
}

// TestPlacementDeterministic: two Routers built independently over the
// same list agree on every key's successor order, call after call.
func TestPlacementDeterministic(t *testing.T) {
	for _, tc := range placementFleets {
		t.Run(tc.name, func(t *testing.T) {
			a, b := addrRouter(t, tc.addrs), addrRouter(t, tc.addrs)
			for _, key := range testKeys(500) {
				oa, ob := fmt.Sprint(successorAddrs(a, key)), fmt.Sprint(successorAddrs(b, key))
				if oa != ob {
					t.Fatalf("independently built routers disagree: %s vs %s", oa, ob)
				}
				if again := fmt.Sprint(successorAddrs(a, key)); again != oa {
					t.Fatalf("order changed between calls: %s vs %s", oa, again)
				}
			}
		})
	}
}

// TestPlacementOrderIsPermutation: every key's successor order visits
// each replica exactly once and starts at the key's owner, which is
// where an idle fleet places it.
func TestPlacementOrderIsPermutation(t *testing.T) {
	for _, tc := range placementFleets {
		t.Run(tc.name, func(t *testing.T) {
			rt := addrRouter(t, tc.addrs)
			for _, key := range testKeys(500) {
				order := successorAddrs(rt, key)
				if len(order) != len(tc.addrs) {
					t.Fatalf("order %v has %d entries, want %d", order, len(order), len(tc.addrs))
				}
				seen := map[string]bool{}
				for _, a := range order {
					if seen[a] {
						t.Fatalf("replica %s twice in %v", a, order)
					}
					seen[a] = true
				}
				if owner := ownerAddr(rt, key); order[0] != owner {
					t.Fatalf("order %v does not start at the owner %s", order, owner)
				}
				if got := rt.replicas[rt.pick(key, nil, false)].addr; got != order[0] {
					t.Fatalf("idle fleet placed the key on %s, owner is %s", got, order[0])
				}
			}
		})
	}
}

// successorOrders is every key's whole successor order, as addresses.
func successorOrders(rt *Router, keys []judge.PromptKey) [][]string {
	orders := make([][]string, len(keys))
	for k, key := range keys {
		orders[k] = successorAddrs(rt, key)
	}
	return orders
}

// TestRingRemoveMovesOnlyDepartedShare is the rendezvous contract
// (named for the consistent-hash ring this placement replaced):
// evicting any one replica moves only the keys it owned, each to its
// next successor, and readmitting it restores every owner.
func TestRingRemoveMovesOnlyDepartedShare(t *testing.T) {
	keys := testKeys(3000)
	for _, tc := range placementFleets {
		t.Run(tc.name, func(t *testing.T) {
			rt := addrRouter(t, tc.addrs)
			orders := successorOrders(rt, keys)
			for v, victim := range rt.replicas {
				rt.markDown(victim)
				for k, key := range keys {
					want := orders[k][0]
					if want == victim.addr {
						want = ""
						if len(orders[k]) > 1 {
							want = orders[k][1]
						}
					}
					if got := ownerAddr(rt, key); got != want {
						t.Fatalf("evicting replica %d: key %d owned by %q, want %q (order %v)", v, k, got, want, orders[k])
					}
				}
				rt.markUp(victim)
				for k, key := range keys {
					if got := ownerAddr(rt, key); got != orders[k][0] {
						t.Fatalf("key %d not restored after readmitting %s: %s vs %s", k, victim.addr, got, orders[k][0])
					}
				}
			}
		})
	}
}

// TestRingEmptyAndIdempotent: marking a replica down or up twice is the
// same as once, and a fleet with every replica evicted has no owner for
// any key while placement falls back to the first untried replica in
// successor order. (A Router over no replicas cannot be built; see
// TestNewRouterValidation.)
func TestRingEmptyAndIdempotent(t *testing.T) {
	keys := testKeys(200)
	for _, tc := range placementFleets {
		t.Run(tc.name, func(t *testing.T) {
			rt := addrRouter(t, tc.addrs)
			orders := successorOrders(rt, keys)
			for _, victim := range rt.replicas {
				rt.markDown(victim)
				rt.markDown(victim)
				if n := healthyCount(rt); n != len(tc.addrs)-1 {
					t.Fatalf("%d healthy replicas after evicting %s twice, want %d", n, victim.addr, len(tc.addrs)-1)
				}
				rt.markUp(victim)
				rt.markUp(victim)
				if n := healthyCount(rt); n != len(tc.addrs) {
					t.Fatalf("%d healthy replicas after readmitting %s twice, want %d", n, victim.addr, len(tc.addrs))
				}
				for k, key := range keys {
					if got := ownerAddr(rt, key); got != orders[k][0] {
						t.Fatalf("key %d not restored after readmitting %s twice: %s vs %s", k, victim.addr, got, orders[k][0])
					}
				}
			}

			for _, st := range rt.replicas {
				rt.markDown(st)
			}
			tried := make([]bool, len(rt.replicas))
			for k, key := range keys[:50] {
				if i := rt.owner(key); i != -1 {
					t.Fatalf("fully evicted fleet: key %d owned by replica %d", k, i)
				}
				clear(tried)
				for _, want := range orders[k] {
					i := rt.pick(key, tried, false)
					if i < 0 || rt.replicas[i].addr != want {
						t.Fatalf("fully evicted fleet: key %d went to replica %d, want %s (order %v)", k, i, want, orders[k])
					}
					tried[i] = true
				}
				if i := rt.pick(key, tried, false); i != -1 {
					t.Fatalf("pick returned replica %d with every replica tried", i)
				}
			}
		})
	}
}

// TestPlacementBalance: over 50 seeded lists of 2 and of 3
// 127.0.0.1:PORT replicas — how perfbench and the tests address
// daemons on fresh random ports — every replica owns within 3 points
// of its fair 1/N share of 6000 keys.
func TestPlacementBalance(t *testing.T) {
	keys := testKeys(6000)
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			worst := 0.0
			for set := range 50 {
				r := rand.New(rand.NewPCG(uint64(n), uint64(set)))
				ports := map[int]bool{}
				var addrs []string
				for len(addrs) < n {
					p := 1024 + r.IntN(65535-1024)
					if !ports[p] {
						ports[p] = true
						addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", p))
					}
				}
				rt := addrRouter(t, addrs)
				counts := make([]int, n)
				for _, key := range keys {
					counts[rt.owner(key)]++
				}
				for i, c := range counts {
					dev := math.Abs(float64(c)/float64(len(keys)) - 1/float64(n))
					worst = max(worst, dev)
					if dev > 0.03 {
						t.Errorf("set %d: %s owns %d of %d keys (%v), more than 0.03 off 1/%d", set, addrs[i], c, len(keys), counts, n)
					}
				}
			}
			t.Logf("largest deviation from 1/%d over 50 sets: %.4f", n, worst)
		})
	}
}

// TestPickAllocatesNothing: placing a key over three replicas, for
// planning or for dispatch, allocates nothing.
func TestPickAllocatesNothing(t *testing.T) {
	rt := addrRouter(t, []string{"r1", "r2", "r3"})
	keys := testKeys(64)
	tried := make([]bool, len(rt.replicas))
	k := 0
	for _, consume := range []bool{false, true} {
		allocs := testing.AllocsPerRun(200, func() {
			rt.pick(keys[k%len(keys)], tried, consume)
			rt.owner(keys[k%len(keys)])
			k++
		})
		if allocs != 0 {
			t.Errorf("pick(consume=%v) allocated %.1f times per call, want 0", consume, allocs)
		}
	}
}
