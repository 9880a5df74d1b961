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
// with its random() source seeded with seed and its counters at zero.
func (s *Switch) Twin(seed uint64) *Switch {
	t := NewSwitchFromCompiled(s.compiled, WithRandom(crypto.NewSeededRand(seed)))
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
		s.regMu[i].Lock()
		copy(t.regs[i], s.regs[i])
		s.regMu[i].Unlock()
	}
	t.now.Store(s.now.Load())
	return t
}

// RegisterBanks returns a copy of every register bank, in program order.
func (s *Switch) RegisterBanks() [][]uint64 {
	out := make([][]uint64, len(s.regs))
	for i := range s.regs {
		s.regMu[i].Lock()
		out[i] = append([]uint64(nil), s.regs[i]...)
		s.regMu[i].Unlock()
	}
	return out
}
