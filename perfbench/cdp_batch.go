package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"p4auth/internal/controller"
)

// cdp-batch-rollover cadence: a read-back every readBackEvery write
// batches, one UpdateAllKeys round every rolloverEvery.
const (
	batchSwitches  = 4
	readBackEvery  = 8
	rolloverEvery  = 4
	rolloverMsgs   = 2*batchSwitches + 3*batchSwitches // Table III: 2m+3n, n = 4 ring links
	batchInitMsgs  = 4*batchSwitches + 5*batchSwitches // Table III: 4m+5n
	batchProbeRuns = 8                                 // write batches in the model probe
)

// batchRun drives one built system through the batch cadence.
type batchRun struct {
	s      *cdpSys
	rng    *rand.Rand
	tr     *tracer
	st     *timedStore
	writes []controller.RegWrite
	reads  []controller.RegRead

	b         int // write batches done
	model     time.Duration
	attempted int64
	failed    int64
	mism      int64
	firstErr  error
	calls     int64 // batch calls (write and read)
	rounds    int64 // BatchResult.Rounds summed over calls
	rollover  []time.Duration
	kmpMsgs   []int
	kmpErr    error
	storeOps  int64 // store calls made inside write batches
	wBatches  int64
}

// index is the k-th register index of a batch. A seeded start and an odd
// stride walk the power-of-two register without repeats.
func (r *batchRun) index(k, start, stride int) uint32 {
	return uint32((start + k*stride) % regEntries)
}

func (r *batchRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *batchRun) step(p *phase) {
	i := r.b % len(r.s.names)
	sw, sh := r.s.names[i], r.s.shadow[i]
	start, stride := r.rng.IntN(regEntries), 2*r.rng.IntN(regEntries/2)+1
	r.writes = r.writes[:0]
	for k := 0; k < window; k++ {
		r.writes = append(r.writes, controller.RegWrite{Register: regName, Index: r.index(k, start, stride), Value: r.rng.Uint64()})
	}
	ops0 := r.storeOps0()
	t0 := time.Now()
	var sp int32
	if r.tr != nil {
		sp = r.tr.begin(spWriteBatch)
	}
	br, err := r.s.ctrl.WriteRegisterBatch(sw, window, r.writes)
	if r.tr != nil {
		r.tr.end(sp)
		r.storeOps += r.storeOps0() - ops0
		r.wBatches++
	}
	r.record(p, time.Since(t0), br)
	for k, w := range r.writes {
		r.attempted++
		switch {
		case len(br.Errs) != len(r.writes):
			r.fail(fmt.Errorf("write batch to %s: %w", sw, err))
		case br.Errs[k] != nil:
			r.fail(br.Errs[k])
		default:
			sh[w.Index] = w.Value
			if p != nil {
				p.ops++
			}
		}
	}
	r.b++
	if r.b%readBackEvery == 0 {
		r.readBack(p, sw, sh)
	}
	if r.b%rolloverEvery == 0 {
		r.roll()
	}
}

func (r *batchRun) record(p *phase, d time.Duration, br controller.BatchResult) {
	r.model += br.Lat
	r.calls++
	r.rounds += int64(br.Rounds)
	if p != nil {
		p.lat = append(p.lat, d)
	}
}

func (r *batchRun) storeOps0() int64 {
	if r.st == nil {
		return 0
	}
	return r.st.saves + r.st.deletes + r.st.reads
}

// readBack reads a seeded batch of indices of one switch and compares it
// with the shadow copy.
func (r *batchRun) readBack(p *phase, sw string, sh []uint64) {
	start, stride := r.rng.IntN(regEntries), 2*r.rng.IntN(regEntries/2)+1
	r.reads = r.reads[:0]
	for k := 0; k < window; k++ {
		r.reads = append(r.reads, controller.RegRead{Register: regName, Index: r.index(k, start, stride)})
	}
	t0 := time.Now()
	var sp int32
	if r.tr != nil {
		sp = r.tr.begin(spReadBatch)
	}
	br, err := r.s.ctrl.ReadRegisterBatch(sw, window, r.reads)
	if r.tr != nil {
		r.tr.end(sp)
	}
	r.record(p, time.Since(t0), br)
	for k, rd := range r.reads {
		r.attempted++
		switch {
		case len(br.Errs) != len(r.reads) || len(br.Values) != len(r.reads):
			r.fail(fmt.Errorf("read batch from %s: %w", sw, err))
		case br.Errs[k] != nil:
			r.fail(br.Errs[k])
		case br.Values[k] != sh[rd.Index]:
			r.mism++
			r.fail(fmt.Errorf("read %s:%s[%d] = %#x, shadow holds %#x", sw, regName, rd.Index, br.Values[k], sh[rd.Index]))
		default:
			if p != nil {
				p.ops++
			}
		}
	}
}

// roll runs one UpdateAllKeys round: every local key and every port key
// of the ring, two-version rollover, with traffic before and after it.
func (r *batchRun) roll() {
	t0 := time.Now()
	var sp int32
	if r.tr != nil {
		sp = r.tr.begin(spKMP)
	}
	res, err := r.s.ctrl.UpdateAllKeys()
	if r.tr != nil {
		r.tr.end(sp)
	}
	r.rollover = append(r.rollover, time.Since(t0))
	r.kmpMsgs = append(r.kmpMsgs, res.Messages)
	if err != nil && r.kmpErr == nil {
		r.kmpErr = err
	}
}

func runCDPBatch(cfg config) (*result, error) {
	res := &result{}
	var (
		setups, builds, inits, models []time.Duration
		run                           *batchRun
		all                           []*batchRun
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		s, err := buildCDP(cfg.seed, batchSwitches, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, s.build/batchSwitches)
		inits = append(inits, s.keyInit)
		res.check("kmp_init_msgs", s.initKMP.Messages == batchInitMsgs, "InitAllKeys sent %d messages, Table III's 4m+5n gives %d", s.initKMP.Messages, batchInitMsgs)
		r := &batchRun{s: s, rng: rand.New(rand.NewPCG(cfg.seed, 0xba7c4))}
		for r.b < batchProbeRuns {
			r.step(nil)
		}
		models = append(models, r.model)
		run = r
		all = append(all, r)
	}
	probeOps := int64(batchProbeRuns*window + batchProbeRuns/readBackEvery*window)
	res.check("model_identical", allEqual(models), "modeled cost of the %d-op probe over %d set-ups: %v", probeOps, len(models), models)
	model := metric{Name: "model_us_per_op", Value: float64(models[0]) / float64(time.Microsecond) / float64(probeOps), Unit: "us", Clock: "model", N: int(probeOps)}

	refDur, traceDur := phases(cfg)
	run.rollover = nil
	p := startPhase(callCap(refDur, 8_000))
	for !p.over(refDur) {
		run.step(p)
	}
	p.stop()
	rollRef := run.rollover

	var tp *phase
	if cfg.trace {
		tr := newTracer()
		run.st = &timedStore{}
		if err := run.s.traceOn(tr, run.st); err != nil {
			return nil, err
		}
		run.tr = tr
		run.rollover, run.calls, run.rounds = nil, 0, 0
		tp = startPhase(callCap(traceDur, 8_000))
		for !tp.over(traceDur) {
			run.step(tp)
		}
		tp.stop()
		res.tr = tr
	}

	var kmpMsgs []int
	for _, r := range all {
		res.attempted += r.attempted
		res.failed += r.failed
		kmpMsgs = append(kmpMsgs, r.kmpMsgs...)
		if r.kmpErr != nil {
			res.check("kmp_rollover", false, "UpdateAllKeys: %v", r.kmpErr)
		}
		if r.mism > 0 {
			res.check("readback", false, "%d reads differed from the shadow copy; first: %v", r.mism, r.firstErr)
		}
	}
	res.check("no_failures", res.failed == 0, "%d of %d ops failed; first: %v", res.failed, res.attempted, run.firstErr)
	badMsgs := 0
	for _, m := range kmpMsgs {
		if m != rolloverMsgs {
			badMsgs++
		}
	}
	res.check("kmp_msgs_per_round", badMsgs == 0 && len(kmpMsgs) > 0, "%d of %d UpdateAllKeys rounds sent other than 2m+3n = %d messages", badMsgs, len(kmpMsgs), rolloverMsgs)
	checkCalls(res, cfg, p, tp)

	res.e2e = append(endToEndOf(setups, p, res.attempted, res.failed), model,
		metric{Name: "rollover_p50_ms", Value: medianDur(rollRef, time.Millisecond), Unit: "ms", Clock: "wall", N: len(rollRef)},
		metric{Name: "kmp_share", Value: float64(sumDur(rollRef)) / float64(p.wall), Unit: "ratio", Clock: "wall", N: len(rollRef)},
	)
	if cfg.trace {
		tr := res.tr
		res.layers = cdpLayers(cfg.seed, run.s, tr, p, tp, float64(tr.nameTotal(spKMP))/float64(tp.wall), builds, inits)
		// A round's own total, not its self time: the round is the unit
		// rollover_p50_ms measures from outside.
		res.layers = append(res.layers,
			metric{Name: "controller.kmp_round_ns", Value: medianDur(run.rollover, time.Nanosecond), Unit: "ns", Clock: "wall", N: len(run.rollover), Src: "observed"},
			countRow("controller.kmp_msgs_per_round", meanInt(kmpMsgs), "observed"),
			countRow("controller.rounds_per_batch", float64(run.rounds)/float64(max(run.calls, 1)), "observed"),
			countRow("statestore.ops_per_batch", float64(run.storeOps)/float64(max(run.wBatches, 1)), "observed"),
		)
	}
	return res, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}
