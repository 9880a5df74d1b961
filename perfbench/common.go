package main

import (
	"runtime"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
)

// phase records one measured stretch of a workload: the wall time of
// every call into the system, the ops those calls completed, and the
// runtime's memory statistics around it.
type phase struct {
	lat      []time.Duration
	ops      int64
	start    time.Time
	wall     time.Duration
	excluded time.Duration // input generation and set-up inside the phase, not timed
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	// rates is the throughput of each whole rateWindow of the phase;
	// winAt and winOps are where the open window started.
	rates  []float64
	winAt  time.Duration
	winOps int64
}

// rateWindow is the stretch of a phase one throughput sample covers.
const rateWindow = 250 * time.Millisecond

// startPhase collects garbage left by set-up, so that a phase starts from
// the same heap state on every run, and starts the clock. The latency
// buffer is sized for calls calls up front, so that the benchmark's own
// bookkeeping stays out of the allocation counts.
func startPhase(calls int) *phase {
	p := &phase{lat: make([]time.Duration, 0, calls), rates: make([]float64, 0, 1024)}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.start = time.Now()
	return p
}

// elapsed is the timed wall time since the phase started.
func (p *phase) elapsed() time.Duration { return time.Since(p.start) - p.excluded }

// over reports whether the phase has measured for d. Workloads call it
// between calls, so it also closes each rateWindow that has passed.
func (p *phase) over(d time.Duration) bool {
	e := p.elapsed()
	if w := e - p.winAt; w >= rateWindow {
		p.rates = append(p.rates, float64(p.ops-p.winOps)/w.Seconds())
		p.winAt, p.winOps = e, p.ops
	}
	return e >= d
}

// stop ends the phase.
func (p *phase) stop() {
	p.wall = p.elapsed()
	runtime.ReadMemStats(&p.mem1)
}

// sustained is the throughput the phase held in nine of ten rateWindows:
// the 10th percentile of the per-window rates. A phase shorter than one
// window falls back to its whole-phase rate.
func (p *phase) sustained() float64 {
	if len(p.rates) == 0 {
		return float64(p.ops) / p.wall.Seconds()
	}
	return percentile(append([]float64(nil), p.rates...), 10)
}

// medianDur is the median of ds in unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	return durPercentile(ds, 50, unit)
}

// endToEndOf returns the metrics every workload reports with tracing off.
func endToEndOf(setups []time.Duration, p *phase, attempted, failed int64) []metric {
	n := len(p.lat)
	ms := []metric{
		{Name: "setup_s", Value: medianDur(setups, time.Second), Unit: "s", Clock: "wall", N: len(setups)},
		{Name: "ops_per_s", Value: float64(p.ops) / p.wall.Seconds(), Unit: "1/s", Clock: "wall", N: int(p.ops)},
		{Name: "sustained_ops_per_s", Value: p.sustained(), Unit: "1/s", Clock: "wall", N: len(p.rates)},
		{Name: "lat_p50_us", Value: durPercentile(p.lat, 50, time.Microsecond), Unit: "us", Clock: "wall", N: n},
		{Name: "lat_p90_us", Value: durPercentile(p.lat, 90, time.Microsecond), Unit: "us", Clock: "wall", N: n},
		{Name: "lat_p95_us", Value: durPercentile(p.lat, 95, time.Microsecond), Unit: "us", Clock: "wall", N: n},
		{Name: "lat_p99_us", Value: durPercentile(p.lat, 99, time.Microsecond), Unit: "us", Clock: "wall", N: n},
	}
	if tail, ok := tailPercentile(n); ok && tail > 99 {
		ms = append(ms, metric{Name: "lat_p999_us", Value: durPercentile(p.lat, tail, time.Microsecond), Unit: "us", Clock: "wall", N: n})
	}
	var failRatio float64
	if attempted > 0 {
		failRatio = float64(failed) / float64(attempted)
	}
	perOp := func(v uint64) float64 {
		if p.ops == 0 {
			return 0
		}
		return float64(v) / float64(p.ops)
	}
	return append(ms,
		metric{Name: "fail_ratio", Value: failRatio, Unit: "ratio", Clock: "count", N: int(attempted)},
		metric{Name: "alloc_bytes_per_op", Value: perOp(p.mem1.TotalAlloc - p.mem0.TotalAlloc), Unit: "B", Clock: "count"},
		metric{Name: "allocs_per_op", Value: perOp(p.mem1.Mallocs - p.mem0.Mallocs), Unit: "count", Clock: "count"},
		metric{Name: "heap_inuse_mb", Value: float64(p.mem1.HeapInuse-uint64(8*cap(p.lat))) / (1 << 20), Unit: "MB", Clock: "count"},
	)
}

// runtimeLayer returns the Go runtime's rows over a phase.
func runtimeLayer(p *phase) []metric {
	return []metric{
		{Name: "runtime.gc_cycles", Value: float64(p.mem1.NumGC - p.mem0.NumGC), Unit: "count", Clock: "count", Src: "observed"},
		{Name: "runtime.gc_pause_ms", Value: float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6, Unit: "ms", Clock: "wall", Src: "observed"},
	}
}

// checkCalls requires the phase that gives the run's latencies to hold
// enough calls for p99 to have ten samples beyond it.
func checkCalls(res *result, cfg config, p, tp *phase) {
	if cfg.trace {
		p = tp
	}
	res.check("calls", cfg.small || len(p.lat) >= 1000, "%d timed calls (need >= 1000 for p99)", len(p.lat))
}

// overheadRow compares the traced phase's median call time with the
// untraced reference phase's.
func overheadRow(ref, traced *phase) metric {
	return metric{
		Name:  "trace.overhead",
		Value: overhead(medianDur(ref.lat, time.Nanosecond), medianDur(traced.lat, time.Nanosecond)),
		Unit:  "ratio", Clock: "wall", N: len(traced.lat), Src: "observed",
	}
}

// shareRows returns each layer's self time over total call time, from the
// traced phase's spans. A layer with no span on the workload's path
// reads 0.
func shareRows(tr *tracer) []metric {
	var ms []metric
	for _, l := range []string{"controller", "switchos", "pisa", "statestore", "netsim"} {
		ms = append(ms, metric{Name: l + ".share", Value: tr.layerShare(l), Unit: "ratio", Clock: "wall", Src: "observed"})
	}
	return ms
}

// spanRow is the median self time of one span name, in ns.
func spanRow(tr *tracer, name, metricName string) (metric, bool) {
	v, ok := tr.medianSelf(name)
	a := tr.aggs[name]
	if !ok {
		return metric{}, false
	}
	return metric{Name: metricName, Value: v, Unit: "ns", Clock: "wall", N: int(a.count), Src: "observed"}, true
}

// codecRows times the crypto and core functions the workload's messages
// pass through, on a message of the workload's own shape, signed with its
// own digester. Inside the program these calls have no seam, so the rows
// are derived: the same public functions, timed alone on identical input.
func codecRows(m *core.Message, dig crypto.Digester, key uint64) []metric {
	const blocks, n = 21, 2000
	wire := m.AppendEncode(nil)
	buf := make([]byte, 0, len(wire))
	var mb core.MessageBuf
	row := func(name string, fn func()) metric {
		return metric{Name: name, Value: blockMedian(blocks, n, fn), Unit: "ns", Clock: "wall", N: blocks * n, Src: "derived"}
	}
	return []metric{
		row("crypto.sign_ns", func() { _ = m.Sign(dig, key) }),
		row("crypto.verify_ns", func() { m.Verify(dig, key) }),
		row("core.encode_ns", func() { buf = m.AppendEncode(buf[:0]) }),
		row("core.decode_ns", func() { _, _ = mb.Decode(wire) }),
	}
}

// countRow is a per-layer count.
func countRow(name string, v float64, src string) metric {
	return metric{Name: name, Value: v, Unit: "count", Clock: "count", Src: src}
}

// callCap is the latency buffer for a phase of length d at up to perSec
// calls a second.
func callCap(d time.Duration, perSec float64) int {
	return int(d.Seconds()*perSec) + 1024
}
