package pisa_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

// laneReference runs pkts the way ProcessBatch's lane model specifies,
// one packet at a time through ProcessWith: lane 0 first, each lane's
// packets (port mod len(forks)) in input order, drawing random() from the
// lane's fork and bumping the lane's counter shard. It returns the
// per-packet results and errors and the batch cost (the slowest lane's
// summed cost).
func laneReference(sw *pisa.Switch, forks []crypto.RandomSource, pkts []pisa.Packet) ([]pisa.Result, []error, time.Duration) {
	results := make([]pisa.Result, len(pkts))
	errs := make([]error, len(pkts))
	var batch time.Duration
	workers := len(forks)
	for li, rng := range forks {
		var cost time.Duration
		for i, pkt := range pkts {
			if pkt.Port%workers != li {
				continue
			}
			errs[i] = sw.ProcessWith(pkt, &results[i], rng, uint32(li%pisa.CounterShardCount))
			if errs[i] == nil {
				cost += results[i].Cost
			}
		}
		batch = max(batch, cost)
	}
	return results, errs, batch
}

// randomProgram writes a random() draw into every packet and folds it
// into a register cell per ingress port.
func randomProgram() *pisa.Program {
	r := pisa.F("h", "r")
	return &pisa.Program{
		Name:         "random",
		Headers:      []*pisa.HeaderDef{{Name: "h", Fields: []pisa.FieldDef{{Name: "r", Width: 64}}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*pisa.RegisterDef{{Name: "mix", Width: 64, Entries: 8}},
		Control: []pisa.Op{
			pisa.Random(r),
			pisa.RegRMW(pisa.F(pisa.MetaHeader, "r_old"), "mix", pisa.R(pisa.F(pisa.MetaHeader, pisa.MetaIngressPort)), pisa.RMWXor, pisa.R(r)),
			pisa.Forward(pisa.C(1)),
		},
		Metadata: []pisa.FieldDef{{Name: "r_old", Width: 64}},
	}
}

// TestProcessBatchMatchesLaneReference pins ProcessBatch at workers=N to
// the lane model on every program the differential fuzzer drives: the
// first error by input index, every other packet's emissions, passes and
// cost, the batch cost, and afterwards every register bank and every
// counter shard equal the lane-by-lane reference's. Two rounds run so the
// second starts from the state the first left.
func TestProcessBatchMatchesLaneReference(t *testing.T) {
	targets, seeds := fuzzTargets(t)
	// None of the fuzz targets lets random() reach a packet or a register,
	// so one more program does, to pin each lane's fork.
	rnd, err := pisa.NewSwitch(randomProgram(), pisa.BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, fuzzTarget{"random", rnd})
	pkts := make([]pisa.Packet, 0, 2*len(seeds))
	for i, s := range seeds {
		pkts = append(pkts,
			pisa.Packet{Data: s.data, Port: int(s.port)},
			pisa.Packet{Data: s.data, Port: int(s.port) + i%5})
	}
	const seed = 0x1a9e
	for _, tg := range targets {
		for _, workers := range []int{2, 3, 8} {
			where := fmt.Sprintf("%s workers=%d", tg.name, workers)
			par, ref := tg.sw.Twin(seed, pisa.WithWorkers(workers)), tg.sw.Twin(seed)
			forks := make([]crypto.RandomSource, workers)
			for li := range forks {
				forks[li] = crypto.NewSeededRand(seed).Fork(uint64(li))
			}
			var br pisa.BatchResult
			for round := 0; round < 2; round++ {
				err := par.ProcessBatch(pkts, &br)
				results, errs, cost := laneReference(ref, forks, pkts)
				var wantErr error
				for _, e := range errs {
					if e != nil {
						wantErr = e
						break
					}
				}
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s round %d: error %v, reference %v", where, round, err, wantErr)
				}
				if br.Cost != cost {
					t.Fatalf("%s round %d: cost %v, reference %v", where, round, br.Cost, cost)
				}
				for i := range pkts {
					if errs[i] != nil {
						continue
					}
					got, want := &br.Results[i], &results[i]
					if got.Passes != want.Passes || got.Cost != want.Cost || len(got.Emissions) != len(want.Emissions) {
						t.Fatalf("%s round %d pkt %d: passes/cost/emissions %d/%v/%d, reference %d/%v/%d", where, round, i,
							got.Passes, got.Cost, len(got.Emissions), want.Passes, want.Cost, len(want.Emissions))
					}
					for j, e := range got.Emissions {
						if e.Port != want.Emissions[j].Port || !bytes.Equal(e.Data, want.Emissions[j].Data) {
							t.Fatalf("%s round %d pkt %d: emission %d diverges from the reference", where, round, i, j)
						}
					}
				}
				if got, want := par.RegisterBanks(), ref.RegisterBanks(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: register banks %v, reference %v", where, round, got, want)
				}
				if got, want := par.CounterShards(), ref.CounterShards(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: counter shards %v, reference %v", where, round, got, want)
				}
			}
		}
	}
}
