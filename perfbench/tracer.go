package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Span names. The part before the dot is the layer (the repo module)
// whose time the span covers; every span is recorded from this package,
// around a call into the layer or at a seam the layer offers.
const (
	spWrite      = "controller.write"       // Controller.WriteRegister
	spRead       = "controller.read"        // Controller.ReadRegister
	spWriteBatch = "controller.write_batch" // Controller.WriteRegisterBatch
	spReadBatch  = "controller.read_batch"  // Controller.ReadRegisterBatch
	spKMP        = "controller.kmp"         // Controller.UpdateAllKeys
	spAgent      = "switchos.agent"         // AgentSDK hooks: OnPacketOut .. OnPacketIn
	spPipeline   = "pisa.pipeline"          // SDKDriver hooks: OnPacketOut .. OnPacketIn
	spSave       = "statestore.save"        // timing Store wrapper
	spDelete     = "statestore.delete"
	spLoad       = "statestore.load"
	spKeys       = "statestore.keys"
	spNetBatch   = "switchos.netbatch" // Host.NetworkPacketBatchInto
	spPisaBatch  = "pisa.batch"        // Switch.ProcessBatch on a same-shaped batch
	spSlice      = "netsim.slice"      // Sim.RunUntil over one fixed virtual slice
	spNode       = "switchos.node"     // one fabric switch handling one packet
)

// keepSpans bounds the raw spans written out at the end of a traced run;
// aggregates cover every span.
const keepSpans = 20000

// selfSample bounds the per-name sample of self times kept for medians.
const selfSample = 1 << 18

// span is one timed interval. Start and End are nanoseconds since the
// tracer's base; Parent indexes the enclosing span of the same op (-1 for
// the op's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// agg accumulates one span name across a run.
type agg struct {
	count int64
	total int64 // sum of durations
	self  int64 // sum of self times
	selfs []int64
}

// tracer records spans of one calling goroutine. An op is the tree under
// one root span; when its root ends, the op's self times are folded into
// per-name aggregates, so memory stays bounded however long the run.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	op    int64

	// Open hook spans (-1 when none). A packet whose processing raises no
	// PacketIn leaves its spans open until the next packet or the op's end.
	agent, pipe, lastAgent int32

	aggs      map[string]*agg
	rootTotal int64
	kept      []span
	scratch   []int64

	// allocProbe brackets every pipeline span with runtime.ReadMemStats to
	// count the allocations made inside it. It stops the world twice per
	// packet, so timings taken while it is on are not used.
	allocProbe bool
	ms         runtime.MemStats
	mallocs0   uint64
	pipeAllocs uint64
	pipePkts   uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), agent: -1, pipe: -1, lastAgent: -1, aggs: map[string]*agg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the innermost open one; with none open it
// starts a new op.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.op++
		t.lastAgent = -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and any span still open inside it. Closing a root
// completes the op.
func (t *tracer) end(id int32) {
	now := t.now()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[top].End = now
		switch top {
		case t.pipe:
			t.pipe = -1
		case t.agent:
			t.agent, t.lastAgent = -1, top
		}
		if top == id {
			break
		}
	}
	if len(t.stack) == 0 {
		t.flush()
	}
}

// closeHooks ends hook spans left open by a packet that raised no PacketIn.
func (t *tracer) closeHooks() {
	if t.agent >= 0 {
		t.end(t.agent)
	} else if t.pipe >= 0 {
		t.end(t.pipe)
	}
}

// flush folds the finished op into the aggregates.
func (t *tracer) flush() {
	t.scratch = selfTimes(t.spans, t.scratch)
	self := t.scratch
	for i, s := range t.spans {
		a := t.aggs[s.Name]
		if a == nil {
			a = &agg{}
			t.aggs[s.Name] = a
		}
		a.count++
		a.total += s.End - s.Start
		a.self += self[i]
		if len(a.selfs) < selfSample {
			a.selfs = append(a.selfs, self[i])
		}
		if s.Parent < 0 {
			t.rootTotal += s.End - s.Start
		}
	}
	if len(t.kept)+len(t.spans) <= keepSpans {
		off := int32(len(t.kept))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			t.kept = append(t.kept, s)
		}
	}
	t.spans = t.spans[:0]
}

// Hook callbacks, installed as pass-through switchos.Hooks: they return
// the bytes unchanged and only mark time.

func (t *tracer) agentOut(data []byte) []byte {
	t.closeHooks()
	t.agent = t.begin(spAgent)
	return data
}

func (t *tracer) pipeOut(data []byte) []byte {
	if t.allocProbe {
		runtime.ReadMemStats(&t.ms)
		t.mallocs0 = t.ms.Mallocs
	}
	t.pipe = t.begin(spPipeline)
	return data
}

func (t *tracer) pipeIn(data []byte) []byte {
	if t.pipe >= 0 {
		t.end(t.pipe)
		if t.allocProbe {
			runtime.ReadMemStats(&t.ms)
			t.pipeAllocs += t.ms.Mallocs - t.mallocs0
			t.pipePkts++
		}
	}
	return data
}

func (t *tracer) agentIn(data []byte) []byte {
	switch {
	case t.agent >= 0:
		t.end(t.agent)
	case t.lastAgent >= 0 && len(t.stack) > 0:
		// A further PacketIn of the same packet: the agent span runs on.
		t.spans[t.lastAgent].End = t.now()
	}
	return data
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, counting overlapping children once. sp must be in start
// order, as the tracer records it; out is reused when large enough.
func selfTimes(sp []span, out []int64) []int64 {
	if cap(out) < 2*len(sp) {
		out = make([]int64, 2*len(sp))
	}
	self, reach := out[:len(sp)], out[len(sp):2*len(sp)]
	for i, s := range sp {
		self[i] = s.End - s.Start
		reach[i] = s.Start // how far the span's children have covered it
	}
	for _, s := range sp {
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := max(s.Start, reach[p]), min(s.End, sp[p].End)
		if hi > lo {
			self[p] -= hi - lo
			reach[p] = hi
		}
	}
	return self
}

// medianSelf is the median self time of one span name, in ns.
func (t *tracer) medianSelf(name string) (float64, bool) {
	a := t.aggs[name]
	if a == nil || a.count == 0 {
		return 0, false
	}
	xs := make([]float64, len(a.selfs))
	for i, v := range a.selfs {
		xs[i] = float64(v)
	}
	return median(xs), true
}

// layerShare is the self time of every span of one layer over the total
// root (call) time.
func (t *tracer) layerShare(layer string) float64 {
	if t.rootTotal == 0 {
		return 0
	}
	var self int64
	for name, a := range t.aggs {
		if strings.HasPrefix(name, layer+".") {
			self += a.self
		}
	}
	return float64(self) / float64(t.rootTotal)
}

// nameTotal is the summed duration of one span name, in ns.
func (t *tracer) nameTotal(name string) int64 {
	if a := t.aggs[name]; a != nil {
		return a.total
	}
	return 0
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
