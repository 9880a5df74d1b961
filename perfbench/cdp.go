package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// The C-DP workloads: one controller and Tofino-profile switches (keyed
// CRC32 digests) with one 1024 x 64-bit register each.
const (
	regName    = "bench_reg"
	regEntries = 1024
	// window is the in-flight window and the batch size of
	// cdp-batch-rollover.
	window = 32
	// modelProbeOps is the fixed op sequence run after every set-up; its
	// modeled cost must be bit-identical across set-ups.
	modelProbeOps = 64
	// allocProbeOps is how many ops of a traced run count pipeline
	// allocations.
	allocProbeOps = 256
)

// cdpSys is one built C-DP system.
type cdpSys struct {
	ctrl    *controller.Controller
	names   []string
	hosts   []*switchos.Host
	mem     *statestore.Mem // nil when the journal is off
	build   time.Duration   // deploy.Build, summed over switches
	keyInit time.Duration   // InitAllKeys
	initKMP controller.KMPResult
	shadow  [][]uint64 // per switch, the register as the controller wrote it
}

// buildCDP deploys n switches, in a ring of port-key links when n > 1,
// and establishes every key.
func buildCDP(seed uint64, n int, wal bool) (*cdpSys, error) {
	s := &cdpSys{ctrl: controller.New(crypto.NewSeededRand(seed))}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sw%d", i)
		t0 := time.Now()
		sw, err := deploy.Build(deploy.SwitchSpec{
			Name:      name,
			Ports:     4,
			Registers: []*pisa.RegisterDef{{Name: regName, Width: 64, Entries: regEntries}},
		})
		s.build += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if err := s.ctrl.Register(name, sw.Host, sw.Cfg, 0); err != nil {
			return nil, err
		}
		s.names = append(s.names, name)
		s.hosts = append(s.hosts, sw.Host)
		s.shadow = append(s.shadow, make([]uint64, regEntries))
	}
	if n > 1 {
		for i := 0; i < n; i++ {
			if err := s.ctrl.ConnectSwitches(s.names[i], 1, s.names[(i+1)%n], 2, 5*time.Microsecond); err != nil {
				return nil, err
			}
		}
	}
	if wal {
		s.mem = statestore.NewMem()
		if err := s.ctrl.EnableCrashSafety(s.mem); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	res, err := s.ctrl.InitAllKeys()
	s.keyInit = time.Since(t0)
	if err != nil {
		return nil, err
	}
	s.initKMP = res
	return s, nil
}

// traceOn installs pass-through hooks at both switchos boundaries of
// every switch and, with the journal on, swaps in the timing store
// wrapper over the same backing store.
func (s *cdpSys) traceOn(tr *tracer, st *timedStore) error {
	for _, h := range s.hosts {
		if err := h.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{OnPacketOut: tr.agentOut, OnPacketIn: tr.agentIn}); err != nil {
			return err
		}
		if err := h.Install(switchos.BoundarySDKDriver, &switchos.Hooks{OnPacketOut: tr.pipeOut, OnPacketIn: tr.pipeIn}); err != nil {
			return err
		}
	}
	if s.mem != nil {
		st.inner = s.mem
		if err := s.ctrl.EnableCrashSafety(st); err != nil {
			return err
		}
		st.tr = tr
	}
	return nil
}

// counter reads one obs counter of the controller's registry.
func (s *cdpSys) counter(name string) float64 {
	return float64(s.ctrl.Observer().Metrics.Counter(name).Load())
}

// cacheHits sums the agents' idempotency-cache hits.
func (s *cdpSys) cacheHits() float64 {
	var total float64
	for _, n := range s.names {
		total += s.counter("agent." + n + ".cache_hits")
	}
	return total
}

// requestShape is the workload's own request message: an authenticated
// register write.
func requestShape(seed uint64) *core.Message {
	return &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: uint32(seed) | 1, KeyVersion: 1},
		Reg:    &core.RegPayload{RegID: 1, Index: uint32(seed % regEntries), Value: seed * 0x9e3779b97f4a7c15},
	}
}

// serialOp is one cdp-serial step: a write at a seeded index, then a read
// at another seeded index checked against the shadow copy.
type serialOp struct {
	s         *cdpSys
	rng       *rand.Rand
	tr        *tracer
	model     time.Duration
	attempted int64
	failed    int64
	mism      int64
	firstErr  error
}

func (o *serialOp) step(p *phase) {
	sh := o.s.shadow[0]
	idx, val := uint32(o.rng.IntN(regEntries)), o.rng.Uint64()
	t0 := time.Now()
	var sp int32
	if o.tr != nil {
		sp = o.tr.begin(spWrite)
	}
	lat, err := o.s.ctrl.WriteRegister(o.s.names[0], regName, idx, val)
	if o.tr != nil {
		o.tr.end(sp)
	}
	if p != nil {
		p.lat = append(p.lat, time.Since(t0))
	}
	o.model += lat
	o.count(p, err)
	if err == nil {
		sh[idx] = val
	}

	ridx := uint32(o.rng.IntN(regEntries))
	t0 = time.Now()
	if o.tr != nil {
		sp = o.tr.begin(spRead)
	}
	got, lat, err := o.s.ctrl.ReadRegister(o.s.names[0], regName, ridx)
	if o.tr != nil {
		o.tr.end(sp)
	}
	if p != nil {
		p.lat = append(p.lat, time.Since(t0))
	}
	o.model += lat
	if err == nil && got != sh[ridx] {
		o.mism++
		err = fmt.Errorf("read %s[%d] = %#x, shadow holds %#x", regName, ridx, got, sh[ridx])
	}
	o.count(p, err)
}

func (o *serialOp) count(p *phase, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	} else if p != nil {
		p.ops++
	}
}

func runCDPSerial(cfg config) (*result, error) {
	res := &result{}
	var (
		setups []time.Duration
		builds []time.Duration
		inits  []time.Duration
		models []time.Duration
		sys    *cdpSys
		op     *serialOp
		all    []*serialOp
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		s, err := buildCDP(cfg.seed, 1, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, s.build)
		inits = append(inits, s.keyInit)
		res.check("kmp_init_msgs", s.initKMP.Messages == 4, "LocalKeyInit sent %d messages, Table III's 4m+5n gives 4", s.initKMP.Messages)
		o := &serialOp{s: s, rng: rand.New(rand.NewPCG(cfg.seed, 0x5e51a1))}
		for j := 0; j < modelProbeOps/2; j++ {
			o.step(nil)
		}
		models = append(models, o.model)
		sys, op = s, o
		all = append(all, o)
	}
	res.check("model_identical", allEqual(models), "modeled cost of the %d-op probe over %d set-ups: %v", modelProbeOps, len(models), models)
	model := metric{Name: "model_us_per_op", Value: float64(models[0]) / float64(time.Microsecond) / modelProbeOps, Unit: "us", Clock: "model", N: modelProbeOps}

	refDur, traceDur := phases(cfg)
	p := startPhase(callCap(refDur, 250_000))
	for !p.over(refDur) {
		op.step(p)
	}
	p.stop()

	var tp *phase
	if cfg.trace {
		tr := newTracer()
		if err := sys.traceOn(tr, nil); err != nil {
			return nil, err
		}
		op.tr = tr
		tp = startPhase(callCap(traceDur, 250_000))
		for !tp.over(traceDur) {
			op.step(tp)
		}
		tp.stop()
		tr.allocProbe = true
		for i := 0; i < allocProbeOps/2; i++ {
			op.step(nil)
		}
		tr.allocProbe = false
		res.tr = tr
	}
	var mism int64
	var firstErr error
	for _, o := range all {
		res.attempted += o.attempted
		res.failed += o.failed
		mism += o.mism
		if firstErr == nil {
			firstErr = o.firstErr
		}
	}
	res.check("readback", mism == 0, "%d reads differed from the shadow copy", mism)
	res.check("no_failures", res.failed == 0, "%d of %d ops failed; first: %v", res.failed, res.attempted, firstErr)
	checkCalls(res, cfg, p, tp)

	res.e2e = append(endToEndOf(setups, p, res.attempted, res.failed), model)
	if cfg.trace {
		res.layers = cdpLayers(cfg.seed, sys, res.tr, p, tp, 0, builds, inits)
	}
	return res, nil
}

// cdpLayers are the per-layer rows both C-DP workloads report.
func cdpLayers(seed uint64, s *cdpSys, tr *tracer, ref, tp *phase, kmpShare float64, builds, inits []time.Duration) []metric {
	ms := codecRows(requestShape(seed), crypto.NewCRC32Digester(), seed)
	ms = append(ms, shareRows(tr)...)
	ms = append(ms,
		metric{Name: "controller.kmp_share", Value: kmpShare, Unit: "ratio", Clock: "wall", Src: "observed"},
		countRow("switchos.cache_hits", s.cacheHits(), "observed"),
		countRow("controller.retransmits", s.counter("ctl.retransmits"), "observed"),
	)
	ms = append(ms, runtimeLayer(tp)...)
	ms = append(ms, cdpSpanRows(tr)...)
	return append(ms,
		metric{Name: "deploy.build_ms", Value: medianDur(builds, time.Millisecond), Unit: "ms", Clock: "wall", N: len(builds), Src: "observed"},
		metric{Name: "controller.key_init_ms", Value: medianDur(inits, time.Millisecond), Unit: "ms", Clock: "wall", N: len(inits), Src: "observed"},
		overheadRow(ref, tp),
	)
}

// cdpSpanRows are the per-span self times both C-DP workloads report.
func cdpSpanRows(tr *tracer) []metric {
	var ms []metric
	for _, r := range [][2]string{
		{spPipeline, "pisa.process_ns"},
		{spAgent, "switchos.packetout_self_ns"},
		{spWrite, "controller.write_self_ns"},
		{spRead, "controller.read_self_ns"},
		{spWriteBatch, "controller.write_batch_self_ns"},
		{spReadBatch, "controller.read_batch_self_ns"},
		{spSave, "statestore.save_ns"},
		{spDelete, "statestore.delete_ns"},
	} {
		if m, ok := spanRow(tr, r[0], r[1]); ok {
			ms = append(ms, m)
		}
	}
	if tr.pipePkts > 0 {
		ms = append(ms, metric{Name: "pisa.allocs_per_pkt", Value: float64(tr.pipeAllocs) / float64(tr.pipePkts), Unit: "count", Clock: "count", N: int(tr.pipePkts), Src: "observed"})
	}
	return ms
}

func allEqual(ds []time.Duration) bool {
	for _, d := range ds {
		if d != ds[0] {
			return false
		}
	}
	return true
}

// timedStore wraps the controller's durable store and records a span
// around every call while a tracer is attached.
type timedStore struct {
	inner                 statestore.Store
	tr                    *tracer
	saves, deletes, reads int64
}

// span runs fn inside a span named name.
func (t *timedStore) span(name string, fn func()) {
	if t.tr == nil {
		fn()
		return
	}
	t.tr.closeHooks()
	sp := t.tr.begin(name)
	fn()
	t.tr.end(sp)
}

func (t *timedStore) Save(key string, value []byte) (err error) {
	t.saves++
	t.span(spSave, func() { err = t.inner.Save(key, value) })
	return err
}

func (t *timedStore) Load(key string) (v []byte, err error) {
	t.reads++
	t.span(spLoad, func() { v, err = t.inner.Load(key) })
	return v, err
}

func (t *timedStore) Delete(key string) (err error) {
	t.deletes++
	t.span(spDelete, func() { err = t.inner.Delete(key) })
	return err
}

func (t *timedStore) Keys(prefix string) (ks []string, err error) {
	t.reads++
	t.span(spKeys, func() { ks, err = t.inner.Keys(prefix) })
	return ks, err
}
