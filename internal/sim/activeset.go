package sim

import "math/bits"

// This file holds the active-set primitive behind the engine's
// O(active) cycle loop. The engine keeps wake state at two levels —
// bitsets of routers with buffered packets and of nodes with injection
// work (actSet.in / out / node, one bit each), and inside a router a
// wake cycle per port (Router.inWake / outWake) — so the per-cycle
// stages visit only components that can possibly make progress instead
// of scanning every router, port and VC.
//
// The wake-list invariant (DESIGN.md §10): every state mutation that
// can enable progress at a component must wake it — set its bit, lower
// its wake cycle. Bitset membership is keyed purely on buffered-packet
// counts and a port's wake cycle is lowered by the same wrapper that
// buffers an arrival, which makes the invariant structural rather than
// a per-call-site obligation: all queue mutations go through the
// enqueue*/dequeue*/take* wrappers in network.go, and a component
// holding no packets is provably a no-op for its stage. What a port
// waits for without an arrival announcing it — credits, buffer
// releases — it polls for (its wake cycle is the next cycle); what it
// can date — its own serialization, a crossbar output's, an entry still
// on the wire — it sleeps until. Fault injection drops through the same
// wrappers and resets the wake cycles of the ports whose routes it
// forgets.
//
// Iteration is in ascending order, which is exactly the order a full
// scan visits the components that act, so the engine's packet and RNG
// sequences are byte-identical to the full scan (enforced by
// TestGoldenStatsIdentity).

// bitset is a fixed-capacity bit vector over [0, n).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// nextFrom returns the smallest set bit >= i, or -1. Scanning a set
// with successive nextFrom(i+1) calls costs O(words + population), and
// tolerates the caller clearing the current (or any earlier) bit
// mid-iteration — the property the engine stages rely on when a
// component empties while being serviced. Callers must not set bits
// behind the cursor during iteration.
func (b bitset) nextFrom(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}
