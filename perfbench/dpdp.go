package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// dpdp-probes: signed HULA probes arrive on 8 network ports of one secure
// BMv2 switch (HalfSipHash digests) with two ingress lanes. Each batch
// carries one probe with a corrupted digest, as a link MitM would send.
const (
	dpdpPorts       = 8
	dpdpWorkers     = 2
	probeBatch      = 32
	probeDsts       = 64
	dpdpProbeRuns   = 8  // batches in the model probe
	allocProbeBatch = 64 // batches whose allocations a traced run counts
)

// dpdpSys is one built probe switch and its traffic generator.
type dpdpSys struct {
	sw     *hula.Switch
	dig    crypto.Digester
	keys   []uint64
	seqs   []uint32
	bodies [][]byte
	rng    *rand.Rand
	next   int
	build  time.Duration // hula.NewSwitch

	pkts   []pisa.Packet
	bufs   [][]byte
	forged int // index of the forged probe in pkts
	io     switchos.IOResult
	bres   pisa.BatchResult
	got    []int

	model                time.Duration
	sentGood, sentForged int64
	attempted, failed    int64
	forgedAccepted       int64
	firstErr             error
}

func buildDPDP(seed uint64) (*dpdpSys, error) {
	p := hula.DefaultParams(1, dpdpPorts)
	p.Workers = dpdpWorkers
	t0 := time.Now()
	sw, err := hula.NewSwitch("dpdp", p, seed)
	build := time.Since(t0)
	if err != nil {
		return nil, err
	}
	dig, err := sw.Cfg.Digester()
	if err != nil {
		return nil, err
	}
	d := &dpdpSys{
		sw: sw, dig: dig, build: build,
		keys: make([]uint64, dpdpPorts+1), seqs: make([]uint32, dpdpPorts+1),
		rng:  rand.New(rand.NewPCG(seed, 0xd9d9)),
		pkts: make([]pisa.Packet, probeBatch), bufs: make([][]byte, probeBatch),
		got: make([]int, dpdpPorts+2),
	}
	keyRand := rand.New(rand.NewPCG(seed, 0xbeef))
	for port := 1; port <= dpdpPorts; port++ {
		d.keys[port] = keyRand.Uint64()
		// Trusted set-up: the neighbour's ingress key goes straight into
		// the key table, as the fabric's key-repair path would install it.
		if err := sw.Host.SW.RegisterWrite(core.RegKeysV0, port, d.keys[port]); err != nil {
			return nil, err
		}
		if err := sw.SetProbeFlood(port, []int{outPort(port)}); err != nil {
			return nil, err
		}
	}
	for dst := 0; dst < probeDsts; dst++ {
		b, err := hula.ProbePacket(uint16(dst), false)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, b[1:]) // the probe body without its insecure ptype tag
	}
	return d, nil
}

// outPort is where a probe arriving on port floods to.
func outPort(port int) int { return port%dpdpPorts + 1 }

// probeShape is a probe message around a HULA probe body, the shape every
// DP-DP message of the probe workloads has.
func probeShape(body []byte) *core.Message {
	return &core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe, SeqNum: 1},
		Aux:    append([]byte(nil), body...),
	}
}

// gen builds the next batch: round-robin over the ports, ascending
// per-port sequence numbers, one seeded position with a corrupted digest.
func (d *dpdpSys) gen() error {
	d.forged = d.rng.IntN(probeBatch)
	for i := range d.pkts {
		port := d.next%dpdpPorts + 1
		d.next++
		d.seqs[port]++
		m := core.Message{
			Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe, SeqNum: d.seqs[port]},
			Aux:    d.bodies[d.rng.IntN(probeDsts)],
		}
		if err := m.Sign(d.dig, d.keys[port]); err != nil {
			return err
		}
		if i == d.forged {
			m.Digest ^= d.rng.Uint32() | 1
			d.sentForged++
		} else {
			d.sentGood++
		}
		d.bufs[i] = m.AppendEncode(d.bufs[i][:0])
		d.pkts[i] = pisa.Packet{Data: d.bufs[i], Port: port}
	}
	return nil
}

func (d *dpdpSys) fail(err error) {
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// viaHost sends the batch through Host.NetworkPacketBatchInto and checks
// the verdicts per egress port: every good probe floods to its port's
// egress, and the forged one goes nowhere.
func (d *dpdpSys) viaHost(p *phase, tr *tracer) {
	t0 := time.Now()
	var sp int32
	if tr != nil {
		sp = tr.begin(spNetBatch)
	}
	err := d.sw.Host.NetworkPacketBatchInto(d.pkts, &d.io)
	if tr != nil {
		tr.end(sp)
	}
	d.done(p, time.Since(t0), d.io.Cost)
	if err != nil {
		d.failed += probeBatch
		d.fail(err)
		return
	}
	clear(d.got)
	for _, e := range d.io.NetOut {
		if e.Port < 0 || e.Port >= len(d.got) {
			d.failed++
			d.fail(fmt.Errorf("probe emitted on port %d", e.Port))
			continue
		}
		d.got[e.Port]++
	}
	for i, pk := range d.pkts {
		if i != d.forged {
			d.got[outPort(pk.Port)]--
		}
	}
	var wrong int64
	for port, n := range d.got {
		switch {
		case n > 0:
			d.forgedAccepted += int64(n)
			wrong += int64(n)
			d.fail(fmt.Errorf("egress port %d forwarded %d probes more than the good ones", port, n))
		case n < 0:
			wrong += int64(-n)
			d.fail(fmt.Errorf("egress port %d forwarded %d good probes fewer than sent", port, -n))
		}
	}
	d.failed += wrong
	if p != nil {
		p.ops += probeBatch - wrong
	}
}

// viaPipeline sends the batch straight to pisa's ProcessBatch, the
// function NetworkPacketBatchInto calls, and checks each probe's verdict.
func (d *dpdpSys) viaPipeline(p *phase, tr *tracer) {
	t0 := time.Now()
	sp := tr.begin(spPisaBatch)
	err := d.sw.Host.SW.ProcessBatch(d.pkts, &d.bres)
	tr.end(sp)
	d.done(p, time.Since(t0), d.bres.Cost)
	if err != nil {
		d.failed += probeBatch
		d.fail(err)
		return
	}
	for i := range d.pkts {
		fwd := false
		for _, e := range d.bres.Results[i].Emissions {
			if e.Port != pisa.CPUPort {
				fwd = true
			}
		}
		switch {
		case fwd == (i != d.forged):
			if p != nil {
				p.ops++
			}
		case fwd:
			d.failed++
			d.forgedAccepted++
			d.fail(fmt.Errorf("forged probe %d on port %d forwarded", i, d.pkts[i].Port))
		default:
			d.failed++
			d.fail(fmt.Errorf("good probe %d on port %d dropped", i, d.pkts[i].Port))
		}
	}
}

func (d *dpdpSys) done(p *phase, lat, cost time.Duration) {
	d.attempted += probeBatch
	d.model += cost
	if p != nil {
		p.lat = append(p.lat, lat)
	}
}

// genTimed generates the next batch with the phase clock paused.
func (d *dpdpSys) genTimed(p *phase) error {
	t0 := time.Now()
	err := d.gen()
	p.excluded += time.Since(t0)
	return err
}

// fbCounts sums the feedback verdict registers over the network ports.
func (d *dpdpSys) fbCounts() (ok, bad uint64, err error) {
	for port := 1; port <= dpdpPorts; port++ {
		o, err := d.sw.Host.SW.RegisterRead(core.RegFbOK, port)
		if err != nil {
			return 0, 0, err
		}
		b, err := d.sw.Host.SW.RegisterRead(core.RegFbBad, port)
		if err != nil {
			return 0, 0, err
		}
		ok, bad = ok+o, bad+b
	}
	return ok, bad, nil
}

func runDPDP(cfg config) (*result, error) {
	res := &result{}
	var (
		setups, builds, models []time.Duration
		d                      *dpdpSys
		all                    []*dpdpSys
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		s, err := buildDPDP(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, s.build)
		for j := 0; j < dpdpProbeRuns; j++ {
			if err := s.gen(); err != nil {
				return nil, err
			}
			s.viaHost(nil, nil)
		}
		models = append(models, s.model)
		if d != nil {
			d.sw.Host.SW.Close()
		}
		d = s
		all = append(all, s)
	}
	defer d.sw.Host.SW.Close()
	res.check("model_identical", allEqual(models), "modeled cost of the %d-batch probe over %d set-ups: %v", dpdpProbeRuns, len(models), models)
	model := metric{Name: "model_us_per_op", Value: float64(models[0]) / float64(time.Microsecond) / (dpdpProbeRuns * probeBatch), Unit: "us", Clock: "model", N: dpdpProbeRuns * probeBatch}

	refDur, traceDur := phases(cfg)
	p := startPhase(callCap(refDur, 16_000))
	for !p.over(refDur) {
		if err := d.genTimed(p); err != nil {
			return nil, err
		}
		d.viaHost(p, nil)
	}
	p.stop()

	var tp *phase
	var allocsPerPkt float64
	if cfg.trace {
		tr := newTracer()
		tp = startPhase(callCap(traceDur, 16_000))
		// Even batches go through the switch software, odd ones straight
		// to the pipeline: the same shape and the same stream, so the
		// pipeline's share of a host batch is their ratio.
		for b := 0; !tp.over(traceDur); b++ {
			if err := d.genTimed(tp); err != nil {
				return nil, err
			}
			if b%2 == 0 {
				d.viaHost(tp, tr)
			} else {
				d.viaPipeline(tp, tr)
			}
		}
		tp.stop()
		var ms0, ms1 runtime.MemStats
		var mallocs uint64
		for b := 0; b < allocProbeBatch; b++ {
			if err := d.gen(); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms0)
			d.viaPipeline(nil, tr)
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
		allocsPerPkt = float64(mallocs) / (allocProbeBatch * probeBatch)
		res.tr = tr
	}

	var forgedAccepted int64
	for _, s := range all {
		res.attempted += s.attempted
		res.failed += s.failed
		forgedAccepted += s.forgedAccepted
	}
	fbOK, fbBad, err := d.fbCounts()
	if err != nil {
		return nil, err
	}
	res.check("verdicts", res.failed == 0, "%d of %d probes got the wrong verdict; first: %v", res.failed, res.attempted, d.firstErr)
	res.check("forged_accepted", forgedAccepted == 0, "%d forged probes forwarded", forgedAccepted)
	res.check("fb_registers", fbOK == uint64(d.sentGood) && fbBad == uint64(d.sentForged),
		"pa_fb_ok=%d pa_fb_bad=%d, sent %d good and %d forged", fbOK, fbBad, d.sentGood, d.sentForged)
	checkCalls(res, cfg, p, tp)

	res.e2e = append(endToEndOf(setups, p, res.attempted, res.failed), model,
		metric{Name: "forged_accepted", Value: float64(forgedAccepted), Unit: "count", Clock: "count", N: int(res.attempted)})
	if cfg.trace {
		tr := res.tr
		res.layers = codecRows(probeShape(d.bodies[0]), d.dig, d.keys[1])
		host, _ := tr.medianSelf(spNetBatch)
		pipe, _ := tr.medianSelf(spPisaBatch)
		share := pipe / host
		// No controller, journal or netsim runs here, and the network
		// batch path never consults the agent's idempotency cache.
		for _, l := range []string{"controller", "statestore", "netsim"} {
			res.layers = append(res.layers, metric{Name: l + ".share", Value: 0, Unit: "ratio", Clock: "wall", Src: "absent"})
		}
		n := int(tr.aggs[spNetBatch].count)
		res.layers = append(res.layers,
			metric{Name: "pisa.share", Value: share, Unit: "ratio", Clock: "wall", N: n, Src: "derived"},
			metric{Name: "switchos.share", Value: 1 - share, Unit: "ratio", Clock: "wall", N: n, Src: "derived"},
			metric{Name: "controller.kmp_share", Value: 0, Unit: "ratio", Clock: "wall", Src: "absent"},
			countRow("switchos.cache_hits", 0, "absent"),
			countRow("controller.retransmits", 0, "absent"),
		)
		res.layers = append(res.layers, runtimeLayer(tp)...)
		res.layers = append(res.layers,
			metric{Name: "pisa.batch_ns", Value: pipe, Unit: "ns", Clock: "wall", N: int(tr.aggs[spPisaBatch].count), Src: "derived"},
			metric{Name: "switchos.netbatch_self_ns", Value: host - pipe, Unit: "ns", Clock: "wall", N: n, Src: "derived"},
			countRow("pisa.allocs_per_pkt", allocsPerPkt, "derived"),
			countRow("hula.fb_ok", float64(fbOK), "observed"),
			countRow("hula.fb_bad", float64(fbBad), "observed"),
			metric{Name: "deploy.build_ms", Value: medianDur(builds, time.Millisecond), Unit: "ms", Clock: "wall", N: len(builds), Src: "observed"},
			// Overhead on host batches only: the traced phase's pipeline
			// batches skip the switch software.
			metric{Name: "trace.overhead", Value: overhead(medianDur(p.lat, time.Nanosecond), host), Unit: "ratio", Clock: "wall", N: n, Src: "observed"},
		)
	}
	return res, nil
}
