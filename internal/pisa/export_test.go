package pisa

import (
	"testing"

	"p4auth/internal/crypto"
)

// Hooks for the external test package (pisa_test), which builds the
// in-tree programs from packages that themselves import pisa.

// L3TestProgram exposes the toy forwarder the internal tests use.
func L3TestProgram() *Program { return testL3Program() }

// L3TestSwitch exposes the toy forwarder with its routes installed.
func L3TestSwitch(tb testing.TB) *Switch { return newTestSwitch(tb, TofinoProfile()) }

// Twin returns a new switch on the same compilation holding a copy of
// s's runtime state (table entries, registers, multicast groups, clock),
// with its random() source seeded with seed, its counters at zero, and
// opts applied after the seed.
func (s *Switch) Twin(seed uint64, opts ...Option) *Switch {
	t := NewSwitchFromCompiled(s.compiled, append([]Option{WithRandom(crypto.NewSeededRand(seed))}, opts...)...)
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	// Every entry s holds passed insert's checks on this same table, so
	// inserting it again cannot fail.
	for i, ts := range s.tables {
		for _, e := range ts.scan {
			_ = t.tables[i].insert(e.Entry)
		}
		for _, e := range ts.exact {
			_ = t.tables[i].insert(e.Entry)
		}
	}
	for g, ports := range s.mcast {
		t.mcast[g] = append([]int(nil), ports...)
	}
	for i := range s.regs {
		for j := range s.regs[i] {
			t.regs[i][j].Store(s.regs[i][j].Load())
		}
	}
	t.now.Store(s.now.Load())
	return t
}

// RegisterBanks returns a copy of every register bank, in program order.
func (s *Switch) RegisterBanks() [][]uint64 {
	out := make([][]uint64, len(s.regs))
	for i := range s.regs {
		out[i] = make([]uint64, len(s.regs[i]))
		for j := range s.regs[i] {
			out[i][j] = s.regs[i][j].Load()
		}
	}
	return out
}

// CounterShardCount is the number of diagnostic-counter shards; ingress
// lane L bumps shard L mod CounterShardCount.
const CounterShardCount = counterShardCount

// ProcessWith is ProcessInto with the random() source and counter shard
// an ingress lane would use.
func (s *Switch) ProcessWith(pkt Packet, res *Result, rng crypto.RandomSource, shard uint32) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.processInto(pkt, res, rng, shard)
}

// CounterShards returns every counter shard's cells, indexed by shard
// then counter ID.
func (s *Switch) CounterShards() [][]uint64 {
	out := make([][]uint64, len(s.shards))
	for i := range s.shards {
		for id := range s.shards[i].cells {
			out[i] = append(out[i], s.shards[i].cells[id].Load())
		}
	}
	return out
}
