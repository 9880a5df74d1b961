package pisa

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestSwitchConcurrentProcess drives concurrent Process calls (with a
// stateful RMWAdd register and a match table) against concurrent driver
// mutations, then checks no increments were lost — atomic register cells
// must keep the stateful ALU atomic even with overlapping packets.
func TestSwitchConcurrentProcess(t *testing.T) {
	prog := &Program{
		Name: "conc",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "idx", Width: 8},
			{Name: "old", Width: 8},
		}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "hits", Width: 64, Entries: 4}},
		Actions: []*Action{
			{Name: "fwd", Params: []FieldDef{{Name: "port", Width: 16}}, Body: []Op{
				Forward(R(F(ParamHeader, "port"))),
			}},
		},
		Tables: []*Table{{
			Name:    "route",
			Keys:    []TableKey{{Field: F("h", "idx"), Match: MatchExact}},
			Size:    8,
			Actions: []string{"fwd"},
			Default: "fwd", DefaultParams: []uint64{9},
		}},
		Control: []Op{
			RegRMW(F("h", "old"), "hits", R(F("h", "idx")), RMWAdd, C(1)),
			Apply("route"),
		},
	}
	sw, err := NewSwitch(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res Result
			for i := 0; i < perWorker; i++ {
				if err := sw.ProcessInto(Packet{Data: []byte{byte(i % 4), 0}, Port: 1}, &res); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(res.Emissions) != 1 {
					t.Errorf("worker %d: %d emissions", w, len(res.Emissions))
					return
				}
			}
		}(w)
	}
	// Concurrent driver-path mutations: table churn, register reads,
	// counters, clock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := sw.InsertEntry("route", Entry{
				Key: []KeyMatch{EKey(uint64(i % 4))}, Action: "fwd", Params: []uint64{uint64(2 + i%3)},
			}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			sw.SetNow(uint64(i))
			_, _ = sw.RegisterRead("hits", i%4)
			_ = sw.Counter("dropped")
			if err := sw.DeleteEntry("route", []KeyMatch{EKey(uint64(i % 4))}); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	var total uint64
	for i := 0; i < 4; i++ {
		v, err := sw.RegisterRead("hits", i)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if want := uint64(workers * perWorker); total != want {
		t.Errorf("lost register increments: total=%d want %d", total, want)
	}
}

// TestSwitchConcurrentRMWMax drives the replay-floor pattern — RMWMax on
// one shared cell, old value returned into the packet — from many
// goroutines through ProcessInto at once. The floor must end at the true
// maximum of every value sent, and each goroutine's own observations of
// the old floor must never go down: the cell is monotone under
// concurrent callers.
func TestSwitchConcurrentRMWMax(t *testing.T) {
	prog := &Program{
		Name: "floor",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "seq", Width: 32},
			{Name: "old", Width: 32},
		}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "floor", Width: 32, Entries: 1}},
		Control: []Op{
			RegRMW(F("h", "old"), "floor", C(0), RMWMax, R(F("h", "seq"))),
			Forward(C(1)),
		},
	}
	sw, err := NewSwitch(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 2000
	maxSent := make([]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint32(g*0x9e37 + 1)
			var res Result
			var lastOld uint32
			pkt := make([]byte, 8)
			for i := 0; i < perG; i++ {
				rng = rng*1664525 + 1013904223
				seq := rng >> 4
				maxSent[g] = max(maxSent[g], seq)
				binary.BigEndian.PutUint32(pkt, seq)
				if err := sw.ProcessInto(Packet{Data: pkt, Port: 1}, &res); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				old := binary.BigEndian.Uint32(res.Emissions[0].Data[4:])
				if old < lastOld {
					t.Errorf("goroutine %d: floor went down from %d to %d", g, lastOld, old)
					return
				}
				lastOld = old
			}
		}(g)
	}
	wg.Wait()

	var want uint32
	for _, m := range maxSent {
		want = max(want, m)
	}
	if got, err := sw.RegisterRead("floor", 0); err != nil || got != uint64(want) {
		t.Fatalf("floor = %d (%v), want the maximum sent %d", got, err, want)
	}
}
