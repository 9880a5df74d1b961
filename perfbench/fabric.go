package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/fleet"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
	"p4auth/internal/trace"
)

// fabric-k4 replays the schedule of fleet's protected hula/attack cell:
// a k=4 fat tree on one netsim shard, probe rounds every 200 µs, seeded
// trace load, and a probe forger on the a0_1 -> e0_0 link. Time advances
// in fixed virtual slices; one slice is one call.
const (
	fabricK      = 4
	fabricLoad   = 40 * time.Millisecond
	smallLoad    = 10 * time.Millisecond // fleet's default load window
	probeEvery   = 200 * time.Microsecond
	sliceLen     = 100 * time.Microsecond
	victimEdge   = "e0_0"
	attackedAgg  = "a0_1"
	attackedPort = 1    // index of a0_1 in UplinkShares(victimEdge)
	steeredShare = 0.75 // fleet's threshold for a forgery that took effect
	fleetFloor   = 0.95 // fleet's survival floor for the attack fault, reported not gated
)

// fabricCell is one built and scheduled fabric.
type fabricCell struct {
	topo   *fleet.Topology
	sent   int64
	runEnd time.Duration
	errs   int
	build  time.Duration
}

// timedHandler records a span around one switch handling one packet.
type timedHandler struct {
	inner netsim.Handler
	tr    *tracer
}

func (h timedHandler) HandlePacket(net *netsim.Network, node *netsim.Node, port int, data []byte) {
	sp := h.tr.begin(spNode)
	h.inner.HandlePacket(net, node, port, data)
	h.tr.end(sp)
}

// buildCell deploys the fabric and schedules probes, load and the attack
// exactly as fleet's runFabricCell does for the protected attack cell.
func buildCell(seed uint64, load time.Duration, tr *tracer) (*fabricCell, error) {
	cfg := fleet.DefaultTopoConfig(fabricK)
	cfg.Shards = 1
	cfg.Secure = true
	cfg.Seed = seed
	t0 := time.Now()
	topo, err := fleet.BuildFatTree(cfg)
	if err != nil {
		return nil, err
	}
	c := &fabricCell{topo: topo, build: time.Since(t0)}
	sim := topo.Net.Sim
	call := func(fn func() error) func() {
		return func() {
			var sp int32
			if tr != nil {
				sp = tr.begin(spNode)
			}
			if err := fn(); err != nil {
				c.errs++
			}
			if tr != nil {
				tr.end(sp)
			}
		}
	}
	if tr != nil {
		for name := range topo.Switches {
			node := topo.Net.Node(name)
			node.Handler = timedHandler{inner: node.Handler, tr: tr}
		}
	}

	loadStart := 2 * time.Millisecond
	c.runEnd = loadStart + load + 3*time.Millisecond
	for at := 100 * time.Microsecond; at < c.runEnd; at += probeEvery {
		for _, e := range topo.Edges {
			e := e
			sim.AtShard(topo.ShardOf(topo.PodOf(e)), at, call(func() error { return topo.InjectProbe(e) }))
		}
	}
	tcfg := trace.DefaultConfig(uint64(load))
	tcfg.Seed = seed
	base := trace.NewStream(tcfg)
	tors := make([]uint16, len(topo.Edges))
	for i, e := range topo.Edges {
		tors[i] = topo.TorID[e]
	}
	for i, e := range topo.Edges {
		e, src := e, i
		for _, p := range base.Fork(uint64(i)).Generate() {
			p := p
			dst := tors[(src+1+int(p.Flow)%(len(tors)-1))%len(tors)]
			sim.AtShard(topo.ShardOf(topo.PodOf(e)), loadStart+time.Duration(p.AtNs),
				call(func() error { return topo.SendData(e, dst, p.Flow, p.Size) }))
			c.sent++
		}
	}
	sim.At(loadStart-500*time.Microsecond, func() {
		if err := topo.Net.LinkBetween(attackedAgg, victimEdge).SetTap(victimEdge, hula.ForgeUtilTap(true, 0)); err != nil {
			c.errs++
		}
	})
	return c, nil
}

// cellOutcome is what one cell's checks read.
type cellOutcome struct {
	delivered int64
	alerts    int
	share     float64 // victim's uplink share toward the attacker's agg
	linkTx    uint64
}

// run advances the cell slice by slice to its end.
func (c *fabricCell) run(p *phase, tr *tracer) (cellOutcome, error) {
	sim := c.topo.Net.Sim
	for t := sliceLen; ; t += sliceLen {
		if t > c.runEnd {
			t = c.runEnd
		}
		t0 := time.Now()
		var sp int32
		if tr != nil {
			sp = tr.begin(spSlice)
		}
		sim.RunUntil(t)
		if tr != nil {
			tr.end(sp)
		}
		p.lat = append(p.lat, time.Since(t0))
		if t == c.runEnd {
			break
		}
	}
	var out cellOutcome
	for _, h := range c.topo.Hosts {
		out.delivered += int64(h.Packets)
	}
	out.alerts = c.topo.TotalAlerts() + len(c.topo.Ctrl.Alerts())
	shares, err := c.topo.UplinkShares(victimEdge)
	if err != nil {
		return out, err
	}
	out.share = shares[attackedPort]
	for _, lk := range c.topo.Links {
		for _, end := range []string{lk.A, lk.B} {
			_, pkts, err := lk.L.TxStats(end)
			if err != nil {
				return out, err
			}
			out.linkTx += pkts
		}
	}
	for name, sw := range c.topo.Switches {
		if len(sw.Node.Errors) > 0 {
			return out, fmt.Errorf("switch %s: %d pipeline errors, first: %v", name, len(sw.Node.Errors), sw.Node.Errors[0])
		}
	}
	return out, nil
}

func runFabric(cfg config) (*result, error) {
	res := &result{}
	load := fabricLoad
	if cfg.small {
		load = smallLoad
	}
	var (
		setups, builds []time.Duration
		forgedApplied  int64
		cells          int
		badCount       []string
		belowFloor     int
		minDelivery    = 1.0
		noAlerts       int
		errs           int
		linkTx         uint64
		shareSum       float64
		alertSum       int
		cacheHits      float64
		retransmits    float64
		victim         core.Config // the victim edge's config, for the derived codec rows
	)
	// runCells runs whole cells, each on its own sub-seed, until the phase
	// has measured for d (at least one cell).
	runCells := func(p *phase, d time.Duration, tr *tracer) error {
		for n := 0; n == 0 || !p.over(d); n++ {
			t0 := time.Now()
			sub := cfg.seed*1000 + uint64(cells)
			c, err := buildCell(sub, load, tr)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0))
			builds = append(builds, c.build)
			p.excluded += time.Since(t0)
			out, err := c.run(p, tr)
			if err != nil {
				return err
			}
			p.ops += out.delivered
			cells++
			res.attempted += c.sent
			res.failed += c.sent - out.delivered
			errs += c.errs
			if out.share > steeredShare {
				forgedApplied++
			}
			if out.alerts == 0 {
				noAlerts++
			}
			if out.delivered <= 0 || out.delivered > c.sent {
				badCount = append(badCount, fmt.Sprintf("sub-seed %d delivered %d of %d", sub, out.delivered, c.sent))
			}
			ratio := float64(out.delivered) / float64(c.sent)
			minDelivery = math.Min(minDelivery, ratio)
			if ratio < fleetFloor {
				belowFloor++
				res.notes = append(res.notes, fmt.Sprintf("sub-seed %d delivered %d of %d packets (%.4f), below fleet's %.2f attack floor", sub, out.delivered, c.sent, ratio, fleetFloor))
			}
			if tr != nil {
				linkTx += out.linkTx
				shareSum += out.share
				alertSum += out.alerts
				reg := c.topo.Ctrl.Observer().Metrics
				for name := range c.topo.Switches {
					cacheHits += float64(reg.Counter("agent." + name + ".cache_hits").Load())
				}
				retransmits += float64(reg.Counter("ctl.retransmits").Load())
				victim = c.topo.Switches[victimEdge].Cfg
			}
		}
		return nil
	}

	refDur, traceDur := phases(cfg)
	p := startPhase(callCap(refDur, 4_000))
	if err := runCells(p, refDur, nil); err != nil {
		return nil, err
	}
	p.stop()
	refSetups := setups

	var tp *phase
	var tracedCells int
	if cfg.trace {
		tr := newTracer()
		res.tr = tr
		first := cells
		tp = startPhase(callCap(traceDur, 4_000))
		if err := runCells(tp, traceDur, tr); err != nil {
			return nil, err
		}
		tp.stop()
		tracedCells = cells - first
	}

	res.check("forged_applied", forgedApplied == 0, "%d of %d cells had the victim's traffic steered onto the attacker's uplink", forgedApplied, cells)
	res.check("alerts", noAlerts == 0, "%d of %d cells raised no P4Auth alert under attack", noAlerts, cells)
	res.check("delivered_count", len(badCount) == 0, "cells delivering nothing or more than sent: %v", badCount)
	res.check("schedule", errs == 0, "%d scheduled injections failed", errs)
	checkCalls(res, cfg, p, tp)

	res.e2e = append(endToEndOf(refSetups, p, res.attempted, res.failed),
		metric{Name: "forged_accepted", Value: float64(forgedApplied), Unit: "count", Clock: "count", N: cells},
		metric{Name: "min_cell_delivery", Value: minDelivery, Unit: "ratio", Clock: "count", N: cells},
		metric{Name: "cells_below_fleet_floor", Value: float64(belowFloor), Unit: "count", Clock: "count", N: cells})
	if cfg.trace {
		tr := res.tr
		dig, err := victim.Digester()
		if err != nil {
			return nil, err
		}
		body, err := hula.ProbePacket(1, false)
		if err != nil {
			return nil, err
		}
		res.layers = codecRows(probeShape(body[1:]), dig, rand.New(rand.NewPCG(cfg.seed, 0xfab)).Uint64())
		res.layers = append(res.layers, shareRows(tr)...)
		res.layers = append(res.layers,
			metric{Name: "controller.kmp_share", Value: 0, Unit: "ratio", Clock: "wall", Src: "absent"},
			countRow("switchos.cache_hits", cacheHits, "observed"),
			countRow("controller.retransmits", retransmits, "observed"),
		)
		res.layers = append(res.layers, runtimeLayer(tp)...)
		slice := metric{Name: "netsim.slice_ns", Value: medianDur(tp.lat, time.Nanosecond), Unit: "ns", Clock: "wall", N: len(tp.lat), Src: "observed"}
		res.layers = append(res.layers, slice)
		if m, ok := spanRow(tr, spNode, "switchos.node_ns"); ok {
			res.layers = append(res.layers, m)
		}
		cellsF := float64(max(tracedCells, 1))
		res.layers = append(res.layers,
			countRow("netsim.link_tx", float64(linkTx)/cellsF, "observed"),
			metric{Name: "netsim.ns_per_tx", Value: float64(tp.wall) / float64(max(linkTx, 1)), Unit: "ns", Clock: "wall", Src: "observed"},
			metric{Name: "fleet.build_s", Value: medianDur(builds, time.Second), Unit: "s", Clock: "wall", N: len(builds), Src: "observed"},
			countRow("fleet.alerts", float64(alertSum)/cellsF, "observed"),
			metric{Name: "fleet.victim_share", Value: shareSum / cellsF, Unit: "ratio", Clock: "count", Src: "observed"},
			overheadRow(p, tp),
		)
	}
	return res, nil
}
