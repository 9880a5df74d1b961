package pisa_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/flowradar"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
	"p4auth/internal/sketch"
)

// fuzzTarget is a booted switch the differential fuzzer drives; each
// input runs on two twins of it, one per executor.
type fuzzTarget struct {
	name string
	sw   *pisa.Switch
}

// fuzzSeed is one seed input: an ingress port and packet bytes.
type fuzzSeed struct {
	port uint16
	data []byte
}

// opsProgram exercises what the in-tree programs leave out: CRC32C,
// identity and payload hashing, rotates and shifts, every RMW kind,
// unaligned header fields, header validity changes, ternary matching,
// multicast, copy-to-CPU, recirculation, random() and an egress pipeline.
func opsProgram() *pisa.Program {
	f := func(n string) pisa.FieldRef { return pisa.F("h", n) }
	m := func(n string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, n) }
	p := func(n string) pisa.Operand { return pisa.R(pisa.F(pisa.ParamHeader, n)) }
	return &pisa.Program{
		Name: "ops",
		Headers: []*pisa.HeaderDef{
			{Name: "h", Fields: []pisa.FieldDef{
				{Name: "op", Width: 8}, {Name: "a", Width: 32}, {Name: "b", Width: 16},
				{Name: "c", Width: 7}, {Name: "d", Width: 9},
			}},
			{Name: "x", Fields: []pisa.FieldDef{{Name: "v", Width: 64}}},
		},
		Metadata: []pisa.FieldDef{{Name: "t", Width: 32}, {Name: "old", Width: 32}, {Name: "r", Width: 64}},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: "h", Select: f("op"),
				Transitions: map[uint64]string{1: "x", 2: ""}, Default: ""},
			{Name: "x", Extract: "x", Select: pisa.F("x", "v"),
				Transitions: map[uint64]string{0: pisa.ParserStart}},
		},
		DeparseOrder: []string{"h", "x"},
		Actions: []*pisa.Action{
			{Name: "mix", Params: []pisa.FieldDef{{Name: "k", Width: 16}}, Body: []pisa.Op{
				pisa.Rotl(f("a"), pisa.R(f("a")), p("k")),
				pisa.Xor(f("b"), pisa.R(f("b")), p("k")),
			}},
			{Name: "mc", Params: []pisa.FieldDef{{Name: "g", Width: 16}}, Body: []pisa.Op{pisa.Multicast(p("g"))}},
			{Name: "cpu", Body: []pisa.Op{pisa.ToCPU()}},
		},
		Tables: []*pisa.Table{{
			Name: "tern", Size: 16, Actions: []string{"mix", "mc", "cpu"},
			Keys:    []pisa.TableKey{{Field: f("b"), Match: pisa.MatchTernary}, {Field: f("c"), Match: pisa.MatchLPM}},
			Default: "mix", DefaultParams: []uint64{3},
		}},
		Registers: []*pisa.RegisterDef{
			{Name: "acc", Width: 32, Entries: 8},
			{Name: "hi", Width: 16, Entries: 4},
			{Name: "eg", Width: 32, Entries: 4},
			{Name: "wide", Width: 64, Entries: 2},
		},
		Control: []pisa.Op{
			pisa.Hash(m("t"), pisa.HashCRC32C, pisa.R(f("a")), pisa.R(f("c"))),
			pisa.KeyedHash(m("old"), pisa.HashCRC32C, pisa.R(f("b")), pisa.R(f("d")), pisa.C(7)),
			{Kind: pisa.OpHash, Dst: m("r"), Alg: pisa.HashIdentity, Inputs: []pisa.Operand{pisa.R(f("d"))}, IncludePayload: true},
			pisa.Shl(f("d"), pisa.R(f("d")), pisa.R(f("c"))),
			pisa.Shr(m("t"), pisa.R(m("t")), pisa.R(f("op"))),
			pisa.Add(f("c"), pisa.R(f("c")), pisa.R(f("op"))),
			pisa.Sub(f("b"), pisa.R(f("b")), pisa.C(1)),
			pisa.Or(m("r"), pisa.R(m("r")), pisa.R(m(pisa.MetaPktLen))),
			pisa.And(m("old"), pisa.R(m("old")), pisa.R(m(pisa.MetaIngressPort))),
			pisa.RegRMW(m("old"), "acc", pisa.R(f("d")), pisa.RMWMax, pisa.R(f("a"))),
			pisa.RegRMW(m("t"), "hi", pisa.R(f("op")), pisa.RMWXor, pisa.R(m("t"))),
			pisa.RegRMW(m("t"), "acc", pisa.R(f("c")), pisa.RMWWrite, pisa.R(m("r"))),
			pisa.RegWrite("hi", pisa.C(1), pisa.R(f("b"))),
			pisa.RegRead(f("a"), "acc", pisa.R(f("op"))),
			pisa.Apply("tern"),
			pisa.If(pisa.Valid("x"), []pisa.Op{pisa.SetInvalid("x")}, []pisa.Op{pisa.SetValid("x")}),
			pisa.RegWrite("wide", pisa.C(1), pisa.R(pisa.F("x", "v"))),
			pisa.Shl(m("r"), pisa.R(m(pisa.MetaIngressPort)), pisa.R(f("c"))),
			pisa.RegWrite("wide", pisa.C(0), pisa.R(m("r"))),
			pisa.If(pisa.Lt(pisa.R(f("op")), pisa.C(2)), []pisa.Op{pisa.Or(f("a"), pisa.R(f("a")), pisa.C(1))}),
			pisa.If(pisa.Cond{L: pisa.R(f("op")), R: pisa.C(2), Cmp: pisa.CmpLe}, []pisa.Op{pisa.Or(f("a"), pisa.R(f("a")), pisa.C(2))}),
			pisa.If(pisa.Cond{L: pisa.R(f("op")), R: pisa.C(2), Cmp: pisa.CmpGe, Negate: true}, []pisa.Op{pisa.Or(f("a"), pisa.R(f("a")), pisa.C(4))}),
			pisa.If(pisa.Eq(pisa.R(f("op")), pisa.C(2)), []pisa.Op{pisa.Or(f("a"), pisa.R(f("a")), pisa.C(8))}),
			pisa.Random(m("r")),
			pisa.If(pisa.Gt(pisa.R(f("c")), pisa.R(m(pisa.MetaPass))), []pisa.Op{pisa.Recirculate()}),
			pisa.If(pisa.Ne(pisa.R(f("op")), pisa.C(3)), []pisa.Op{pisa.Forward(pisa.R(f("b")))}, []pisa.Op{pisa.Drop()}),
		},
		EgressControl: []pisa.Op{
			pisa.RegRMW(m("old"), "eg", pisa.R(m(pisa.MetaEgressPort)), pisa.RMWAdd, pisa.C(1)),
			pisa.If(pisa.Eq(pisa.R(m(pisa.MetaEgressPort)), pisa.C(7)), []pisa.Op{pisa.Drop()}),
		},
	}
}

// parserLoop is one start -> x -> start round of opsProgram's parser: h
// with op 1, then x with v 0.
var parserLoop = []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

// fuzzTargets builds the programs the differential fuzzer drives, booted
// with table entries and keys, and seed inputs that reach past each
// program's parser: signed C-DP requests, signed and forged HULA probes,
// data packets, and the same bytes truncated.
func fuzzTargets(tb testing.TB) ([]fuzzTarget, []fuzzSeed) {
	tb.Helper()
	var targets []fuzzTarget
	var seeds []fuzzSeed
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	sign := func(cfg core.Config, key uint64, m core.Message, forge bool) []byte {
		tb.Helper()
		dig, err := cfg.Digester()
		must(err)
		must(m.Sign(dig, key))
		if forge {
			m.Digest ^= 1
		}
		b, err := m.Encode()
		must(err)
		return b
	}
	cdp := func(cfg core.Config) {
		for seq, mt := range []uint8{core.MsgWriteReq, core.MsgReadReq, core.MsgWriteReq} {
			m := core.Message{
				Header: core.Header{HdrType: core.HdrRegister, MsgType: mt, SeqNum: uint32(seq + 1)},
				Reg:    &core.RegPayload{RegID: uint32(seq), Index: 3, Value: 0x5a5a},
			}
			seeds = append(seeds,
				fuzzSeed{pisa.CPUPort, sign(cfg, cfg.Seed, m, false)},
				fuzzSeed{pisa.CPUPort, sign(cfg, cfg.Seed, m, true)},
				fuzzSeed{2, sign(cfg, cfg.Seed, m, false)})
		}
	}

	targets = append(targets, fuzzTarget{"l3_test", pisa.L3TestSwitch(tb)})
	seeds = append(seeds, fuzzSeed{1, []byte{0xaa, 0xaa, 0xbb, 0xbb, 0x08, 0x00, 10, 10, 0, 1, 64, 6, 'p'}})

	ops, err := pisa.NewSwitch(opsProgram(), pisa.BMv2Profile())
	must(err)
	must(ops.InsertEntry("tern", pisa.Entry{Key: []pisa.KeyMatch{pisa.TKey(0x100, 0xff00), pisa.PKey(0x40, 1)}, Action: "mc", Params: []uint64{1}}))
	must(ops.InsertEntry("tern", pisa.Entry{Key: []pisa.KeyMatch{pisa.TKey(0x200, 0xff00), pisa.PKey(0, 0)}, Action: "cpu", Priority: 2}))
	must(ops.InsertEntry("tern", pisa.Entry{Key: []pisa.KeyMatch{pisa.TKey(0x300, 0xff00), pisa.PKey(0, 0)}, Action: "mix"}))
	ops.SetMulticastGroup(1, []int{2, 7, 3})
	targets = append(targets, fuzzTarget{"ops", ops})
	seeds = append(seeds,
		fuzzSeed{4, []byte{0, 1, 2, 3, 4, 0x01, 0x05, 0xc1, 0x80, 'x', 'y'}},
		fuzzSeed{5, []byte{1, 9, 9, 9, 9, 0x02, 0x07, 0x02, 0x01, 0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'z'}},
		// Parser loops: 66 states, one past the bound, then 80.
		fuzzSeed{5, append(append(bytes.Repeat(parserLoop, 32), parserLoop[:9]...), 0, 0, 0, 0, 0, 0, 0, 1)},
		fuzzSeed{5, append(bytes.Repeat(parserLoop, 40), 2, 1)},
		// The ingress port shifted left by 63 into a 64-bit field.
		fuzzSeed{9, []byte{0, 0, 0, 0, 1, 0x03, 0x00, 0x7e, 0x00, 'p'}},
		fuzzSeed{6, []byte{3, 0, 0, 0, 0, 0x03, 0x00, 0x7f, 0xff}},
		fuzzSeed{4, []byte{40, 0x12, 0x34, 0x56, 0x78, 0x01, 0x05, 0x02, 0x80, 'x'}})

	regs := []*pisa.RegisterDef{{Name: "app_state", Width: 32, Entries: 16}}
	for _, p := range []struct {
		name    string
		profile pisa.Profile
	}{{"deploy_tofino_crc32", pisa.TofinoProfile()}, {"deploy_bmv2_halfsiphash", pisa.BMv2Profile()}} {
		d, err := deploy.Build(deploy.SwitchSpec{Name: "s1", Ports: 4, Profile: p.profile, Registers: regs})
		must(err)
		targets = append(targets, fuzzTarget{p.name, d.Host.SW})
		cdp(d.Cfg)
	}

	hp := hula.DefaultParams(1, 4)
	h, err := hula.NewSwitch("h1", hp, 7)
	must(err)
	for port := 1; port <= hp.Ports; port++ {
		key := 0x1111_2222_3333_0000 + uint64(port)
		must(h.Host.SW.RegisterWrite(core.RegKeysV0, port, key))
		must(h.SetProbeFlood(port, []int{port%hp.Ports + 1}))
		body, err := hula.ProbePacket(uint16(port), false)
		must(err)
		m := core.Message{
			Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe, SeqNum: 1},
			Aux:    body[1:], // the probe body without its insecure ptype tag
		}
		seeds = append(seeds,
			fuzzSeed{uint16(port), sign(h.Cfg, key, m, false)},
			fuzzSeed{uint16(port), sign(h.Cfg, key, m, true)})
	}
	data, err := hula.DataPacket(2, 0xf10, 16)
	must(err)
	seeds = append(seeds, fuzzSeed{uint16(hp.HostPort), data})
	targets = append(targets, fuzzTarget{"hula_secure", h.Host.SW})

	hh, err := sketch.NewHH(sketch.DefaultHHParams(true))
	must(err)
	targets = append(targets, fuzzTarget{"sketch_hh", hh.Host.SW})
	cdp(hh.Cfg)
	seeds = append(seeds, fuzzSeed{1, []byte{sketch.PTypeHH, 0, 0, 0x10, 0x01}})

	fr, err := flowradar.New(flowradar.DefaultParams(true))
	must(err)
	targets = append(targets, fuzzTarget{"flowradar", fr.Host.SW})
	cdp(fr.Cfg)
	seeds = append(seeds, fuzzSeed{1, []byte{flowradar.PTypeFlow, 0, 0, 0xbe, 0xef}})

	for _, s := range seeds[:len(seeds):len(seeds)] {
		if len(s.data) > 1 {
			seeds = append(seeds, fuzzSeed{s.port, s.data[:len(s.data)/2]})
		}
	}
	return targets, seeds
}

// checkAgree runs pkt twice through a twin of sw on each executor and
// requires the same error, emissions, passes, cost, register banks and
// counters after every packet.
func checkAgree(t *testing.T, name string, sw *pisa.Switch, pkt pisa.Packet) {
	t.Helper()
	resolved, interp := sw.Twin(0x5eed), sw.Twin(0x5eed)
	var rr, ri pisa.Result
	for round := 0; round < 2; round++ {
		errR := resolved.ProcessInto(pkt, &rr)
		errI := interp.OracleProcessInto(pkt, &ri)
		where := fmt.Sprintf("%s round %d (port %d, % x)", name, round, pkt.Port, pkt.Data)
		if fmt.Sprint(errR) != fmt.Sprint(errI) {
			t.Fatalf("%s: error %v, interpreter %v", where, errR, errI)
		}
		if errR == nil {
			if rr.Passes != ri.Passes || rr.Cost != ri.Cost {
				t.Fatalf("%s: passes/cost %d/%v, interpreter %d/%v", where, rr.Passes, rr.Cost, ri.Passes, ri.Cost)
			}
			if len(rr.Emissions) != len(ri.Emissions) {
				t.Fatalf("%s: %d emissions, interpreter %d", where, len(rr.Emissions), len(ri.Emissions))
			}
			for i, e := range rr.Emissions {
				if e.Port != ri.Emissions[i].Port || !bytes.Equal(e.Data, ri.Emissions[i].Data) {
					t.Fatalf("%s: emission %d = %d % x, interpreter %d % x",
						where, i, e.Port, e.Data, ri.Emissions[i].Port, ri.Emissions[i].Data)
				}
			}
		}
		if got, want := resolved.RegisterBanks(), interp.RegisterBanks(); !reflect.DeepEqual(got, want) {
			for b := range got {
				if !reflect.DeepEqual(got[b], want[b]) {
					t.Fatalf("%s: register %s = %v, interpreter %v",
						where, sw.Compiled().Program.Registers[b].Name, got[b], want[b])
				}
			}
		}
		if got, want := resolved.CounterSnapshot(), interp.CounterSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: counters %v, interpreter %v", where, got, want)
		}
	}
}

// FuzzResolvedVsInterpreter sends arbitrary bytes on an arbitrary ingress
// port into every target program and requires the resolved executor and
// the name-resolving interpreter to agree.
func FuzzResolvedVsInterpreter(f *testing.F) {
	targets, seeds := fuzzTargets(f)
	for _, s := range seeds {
		f.Add(s.port, s.data)
	}
	f.Fuzz(func(t *testing.T, port uint16, data []byte) {
		for _, tg := range targets {
			checkAgree(t, tg.name, tg.sw, pisa.Packet{Data: data, Port: int(port)})
		}
	})
}
