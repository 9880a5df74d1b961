package pisa

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"p4auth/internal/crypto"
)

// batchPackets builds a batch spread across ports 0..ports-1, round-robin,
// with routable and unroutable destinations mixed in.
func batchPackets(n, ports int) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		dst := uint64(0x0A000001 + i%3)
		if i%5 == 4 {
			dst = 0xC0A80001 // no route -> drop
		}
		pkts[i] = Packet{Data: ethIPPacket(dst, 64), Port: i % ports}
	}
	return pkts
}

// TestProcessBatchSerialEquivalence pins the serial contract: on a switch
// without workers, ProcessBatch is exactly a ProcessInto loop — same
// emissions, same summed cost.
func TestProcessBatchSerialEquivalence(t *testing.T) {
	swBatch := newTestSwitch(t, TofinoProfile())
	swLoop := newTestSwitch(t, TofinoProfile())
	pkts := batchPackets(32, 4)

	var br BatchResult
	if err := swBatch.ProcessBatch(pkts, &br); err != nil {
		t.Fatal(err)
	}
	var res Result
	var wantCost time.Duration
	for i, pkt := range pkts {
		if err := swLoop.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
		wantCost += res.Cost
		got := br.Results[i]
		if len(got.Emissions) != len(res.Emissions) {
			t.Fatalf("pkt %d: %d emissions, want %d", i, len(got.Emissions), len(res.Emissions))
		}
		for j := range res.Emissions {
			if got.Emissions[j].Port != res.Emissions[j].Port ||
				!bytes.Equal(got.Emissions[j].Data, res.Emissions[j].Data) {
				t.Fatalf("pkt %d emission %d diverges from serial loop", i, j)
			}
		}
	}
	if br.Cost != wantCost {
		t.Fatalf("batch cost %v, want serial sum %v", br.Cost, wantCost)
	}
}

// TestProcessBatchWorkersMatchSerial checks that a worker-backed switch
// produces the same per-packet outputs as the serial switch for a program
// without random(), and that batch buffers are stable: every packet keeps
// its own emission bytes after the whole batch completes.
func TestProcessBatchWorkersMatchSerial(t *testing.T) {
	swSerial := newTestSwitch(t, TofinoProfile())
	for _, workers := range []int{2, 4, 8} {
		sw, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		for _, e := range []struct {
			table  string
			key    []KeyMatch
			action string
			params []uint64
		}{
			{"routes", []KeyMatch{PKey(0x0A000000, 8)}, "set_nhop", []uint64{7}},
			{"routes", []KeyMatch{PKey(0x0A0A0000, 16)}, "set_nhop", []uint64{9}},
			{"ports", []KeyMatch{EKey(7)}, "to_port", []uint64{3}},
			{"ports", []KeyMatch{EKey(9)}, "to_port", []uint64{5}},
		} {
			if err := sw.InsertEntry(e.table, Entry{Key: e.key, Action: e.action, Params: e.params}); err != nil {
				t.Fatal(err)
			}
		}

		pkts := batchPackets(64, 8)
		var br BatchResult
		if err := sw.ProcessBatch(pkts, &br); err != nil {
			t.Fatal(err)
		}
		var res Result
		for i, pkt := range pkts {
			if err := swSerial.ProcessInto(pkt, &res); err != nil {
				t.Fatal(err)
			}
			got := br.Results[i]
			if len(got.Emissions) != len(res.Emissions) {
				t.Fatalf("workers=%d pkt %d: %d emissions, want %d",
					workers, i, len(got.Emissions), len(res.Emissions))
			}
			for j := range res.Emissions {
				if got.Emissions[j].Port != res.Emissions[j].Port ||
					!bytes.Equal(got.Emissions[j].Data, res.Emissions[j].Data) {
					t.Fatalf("workers=%d pkt %d emission %d diverges from serial", workers, i, j)
				}
			}
		}
	}
}

// TestProcessBatchDeterministicAcrossRuns: two identical worker switches
// fed the same batches produce identical outputs — results depend only on
// (seed, workers, inputs), never on goroutine scheduling.
func TestProcessBatchDeterministicAcrossRuns(t *testing.T) {
	build := func() *Switch {
		sw, err := NewSwitch(testL3Program(), TofinoProfile(),
			WithRandom(crypto.NewSeededRand(99)), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.InsertEntry("routes", Entry{
			Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
		}); err != nil {
			t.Fatal(err)
		}
		if err := sw.InsertEntry("ports", Entry{
			Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3},
		}); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	pkts := batchPackets(48, 6)
	var ra, rb BatchResult
	for round := 0; round < 3; round++ {
		if err := a.ProcessBatch(pkts, &ra); err != nil {
			t.Fatal(err)
		}
		if err := b.ProcessBatch(pkts, &rb); err != nil {
			t.Fatal(err)
		}
		if ra.Cost != rb.Cost {
			t.Fatalf("round %d: costs diverge: %v vs %v", round, ra.Cost, rb.Cost)
		}
		for i := range pkts {
			ea, eb := ra.Results[i].Emissions, rb.Results[i].Emissions
			if len(ea) != len(eb) {
				t.Fatalf("round %d pkt %d: emission counts diverge", round, i)
			}
			for j := range ea {
				if ea[j].Port != eb[j].Port || !bytes.Equal(ea[j].Data, eb[j].Data) {
					t.Fatalf("round %d pkt %d emission %d diverges between twin switches", round, i, j)
				}
			}
		}
	}
}

// TestProcessIntoAllocs guards the zero-alloc packet path.
func TestProcessIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts change under -race instrumentation")
	}
	sw := newTestSwitch(t, TofinoProfile())
	pkt := Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1}
	var res Result
	// Warm pools and emission arenas.
	for i := 0; i < 16; i++ {
		if err := sw.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sw.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProcessInto allocs/op = %v, want 0", allocs)
	}
}

// TestProcessBatchAllocs guards the steady-state batch path: after pools
// and arenas warm, a batch is 0 allocs/op, serial or split into lanes.
func TestProcessBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts change under -race instrumentation")
	}
	pkts := batchPackets(32, 4)

	serial := newTestSwitch(t, TofinoProfile())
	var br BatchResult
	for i := 0; i < 8; i++ {
		if err := serial.ProcessBatch(pkts, &br); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := serial.ProcessBatch(pkts, &br); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("serial ProcessBatch allocs/op = %v, want 0", allocs)
	}

	par, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	var brp BatchResult
	for i := 0; i < 8; i++ {
		if err := par.ProcessBatch(pkts, &brp); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := par.ProcessBatch(pkts, &brp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("laned ProcessBatch allocs/op = %v, want 0", allocs)
	}
}

// TestProcessBatchConcurrentMutation stress-drives a laned batch path
// against concurrent driver mutations (RegisterWrite, table churn, counter
// reads). Run under -race (make check does) this pins the sharded counter
// cells and atomic register cells.
func TestProcessBatchConcurrentMutation(t *testing.T) {
	par, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if err := par.InsertEntry("routes", Entry{
		Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := par.InsertEntry("ports", Entry{
		Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3},
	}); err != nil {
		t.Fatal(err)
	}

	pkts := batchPackets(64, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := par.RegisterWrite("pkt_count", i%8, uint64(i)); err != nil {
				t.Errorf("register write: %v", err)
				return
			}
			if err := par.InsertEntry("routes", Entry{
				Key: []KeyMatch{PKey(0x0B000000, 8)}, Action: "set_nhop", Params: []uint64{7},
			}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			_ = par.Counter("dropped")
			_ = par.CounterSnapshot()
			par.SetNow(uint64(i))
			if err := par.DeleteEntry("routes", []KeyMatch{PKey(0x0B000000, 8)}); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	var br BatchResult
	for round := 0; round < 100; round++ {
		if err := par.ProcessBatch(pkts, &br); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCounterSnapshotAggregates checks that counters bumped from distinct
// lanes (shards) aggregate into one logical value, that the snapshot is in
// sorted name order, and that unknown names read as zero.
func TestCounterSnapshotAggregates(t *testing.T) {
	sw, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	// No routes installed: every parseable packet hits drop_pkt. Spread
	// across all 8 ports so every shard gets bumps.
	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Data: ethIPPacket(0x0A000001, 64), Port: i % 8}
	}
	var br BatchResult
	if err := sw.ProcessBatch(pkts, &br); err != nil {
		t.Fatal(err)
	}
	if got := sw.Counter("dropped"); got != 64 {
		t.Fatalf("dropped = %d, want 64", got)
	}
	if got := sw.Counter("no_such_counter"); got != 0 {
		t.Fatalf("unknown counter = %d, want 0", got)
	}
	snap := sw.CounterSnapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not in sorted name order: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	found := false
	for _, cv := range snap {
		if cv.Name == "dropped" {
			found = true
			if cv.Value != 64 {
				t.Fatalf("snapshot dropped = %d, want 64", cv.Value)
			}
		}
	}
	if !found {
		t.Fatal("snapshot missing dropped counter")
	}
}

// TestSwitchClose checks Close is idempotent and harmless on serial and
// laned switches, and that both stay usable after it.
func TestSwitchClose(t *testing.T) {
	serial := newTestSwitch(t, TofinoProfile())
	serial.Close()
	serial.Close()

	par, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResult
	if err := par.ProcessBatch(batchPackets(8, 2), &br); err != nil {
		t.Fatal(err)
	}
	par.Close()
	par.Close()
	// Per-packet and batch processing stay available after Close.
	var res Result
	if err := par.ProcessInto(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1}, &res); err != nil {
		t.Fatal(err)
	}
	if err := par.ProcessBatch(batchPackets(8, 2), &br); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersStartNoGoroutines: lanes run on the caller's goroutine, so
// building a laned switch and running batches through it adds no
// goroutines. (The count may drop: a goroutine an earlier test waited
// for can still be exiting.)
func TestWorkersStartNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sw, err := NewSwitch(testL3Program(), TofinoProfile(), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("NewSwitch with 8 workers: %d goroutines, want at most %d", got, before)
	}
	var br BatchResult
	if err := sw.ProcessBatch(batchPackets(32, 8), &br); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("after ProcessBatch: %d goroutines, want at most %d", got, before)
	}
}

// sharedCellProgram is a best-hop-like program: every packet reads one
// shared register cell and writes back a value derived from the old value
// and its ingress port, returning the old value in the packet. Packets on
// different ports, and so in different lanes, interact through the cell,
// and the final state depends on the order they run in.
func sharedCellProgram() *Program {
	m := func(n string) FieldRef { return F(MetaHeader, n) }
	return &Program{
		Name:         "shared_cell",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "old", Width: 32}}}},
		Metadata:     []FieldDef{{Name: "next", Width: 32}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "best", Width: 32, Entries: 1}},
		Control: []Op{
			RegRead(F("h", "old"), "best", C(0)),
			Rotl(m("next"), R(F("h", "old")), C(5)),
			Xor(m("next"), R(m("next")), R(m(MetaIngressPort))),
			RegWrite("best", C(0), R(m("next"))),
			Forward(C(1)),
		},
	}
}

// TestProcessBatchSharedCellDeterministic runs the same batches through
// twenty fresh laned switches of sharedCellProgram. Lanes run in lane
// order, so the shared cell's final value and every packet's view of it
// are identical in every run.
func TestProcessBatchSharedCellDeterministic(t *testing.T) {
	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Data: make([]byte, 4), Port: 1 + i%4}
	}
	run := func() (uint64, []byte) {
		sw, err := NewSwitch(sharedCellProgram(), BMv2Profile(), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var seen []byte
		var br BatchResult
		for round := 0; round < 4; round++ {
			if err := sw.ProcessBatch(pkts, &br); err != nil {
				t.Fatal(err)
			}
			for i := range br.Results {
				seen = append(seen, br.Results[i].Emissions[0].Data...)
			}
		}
		v, err := sw.RegisterRead("best", 0)
		if err != nil {
			t.Fatal(err)
		}
		return v, seen
	}
	wantBest, wantSeen := run()
	for i := 1; i < 20; i++ {
		if best, seen := run(); best != wantBest || !bytes.Equal(seen, wantSeen) {
			t.Fatalf("run %d: shared cell %#x, first run %#x (packet views equal: %v)",
				i, best, wantBest, bytes.Equal(seen, wantSeen))
		}
	}
}
