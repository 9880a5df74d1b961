package pisa

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/obs"
)

// CPUPort is the reserved port number for controller PacketIn/PacketOut
// traffic.
const CPUPort = 0xFFFD

// Emission is one packet leaving the switch.
type Emission struct {
	Port int
	Data []byte
}

// Result summarizes processing of one packet.
//
// A Result passed to ProcessInto is reusable: emission buffers are
// recycled across calls, so Emission.Data is valid only until the next
// ProcessInto on the same Result. Results returned by Process own their
// buffers.
type Result struct {
	Emissions []Emission
	Passes    int
	// Cost is the modeled data-plane latency for this packet.
	Cost time.Duration

	// bufs is the per-emission buffer arena recycled across ProcessInto
	// calls on the same Result.
	bufs [][]byte
}

// Switch is a running data plane: a compiled program plus runtime state
// (table entries, register values, multicast groups). All methods are safe
// for concurrent use. State is sharded so concurrent Process calls
// overlap: table/multicast mutations take a write lock that packet
// processing reads, register cells are atomic words (each register read,
// write or read-modify-write — the replay-floor RMWMax — is one atomic
// operation on its cell), diagnostic counters are lock-free sharded
// atomics, and each in-flight packet draws randomness from its own
// execution state's source.
type Switch struct {
	compiled *Compiled

	// stateMu guards tables and mcast: Process holds the read side, the
	// driver mutation API the write side.
	stateMu sync.RWMutex
	tables  []*tableState
	mcast   map[uint64][]int

	// regs holds the register banks, one atomic word per cell.
	regs [][]atomic.Uint64

	// shards are the diagnostic-counter cells: each ingress lane bumps its
	// own cache-line-padded shard, reads aggregate across all of them.
	shards [counterShardCount]counterShard
	// mirror, when set, shadows the diagnostic counters into an obs
	// registry, indexed by counter ID (see MirrorCounters).
	mirror atomic.Pointer[[numDPCounters]*obs.Counter]

	// rng is the base random source backing the P4 random() extern. The
	// serial path draws from it directly (in packet order); ingress lanes
	// draw from deterministic per-lane forks (see parallel.go).
	rng crypto.RandomSource

	crcIEEE   *crc32.Table
	crcCast   *crc32.Table
	keyedIEEE crypto.KeyedCRC32
	keyedCast crypto.KeyedCRC32
	halfsip   crypto.HalfSipHash

	now atomic.Uint64

	// execPool recycles per-packet execution state (PHV, header validity,
	// hash/table scratch) so steady-state Process does not allocate.
	execPool sync.Pool

	// workers/lanes: the per-port ingress lanes behind ProcessBatch
	// (parallel.go). workers <= 1 means the strictly serial data plane.
	workers int
	lanes   []lane
}

// SetNow sets the ingress timestamp (nanoseconds) stamped into
// MetaTimestamp for subsequent packets. Simulation adapters call this with
// the virtual clock before each Process.
func (s *Switch) SetNow(ns uint64) { s.now.Store(ns) }

// Option configures a Switch.
type Option func(*Switch)

// WithRandom sets the random source backing the P4 random() extern.
func WithRandom(r crypto.RandomSource) Option {
	return func(s *Switch) { s.rng = r }
}

// WithWorkers sets the number of modeled ingress pipes (lanes) used by
// ProcessBatch. n <= 1 (the default) keeps the switch strictly serial:
// every packet runs in submission order, bit-identical to the
// pre-parallel data plane. With n > 1 ProcessBatch assigns packets to
// lanes by ingress port (port-affinity), so per-port replay floors still
// observe strictly ascending sequence numbers; each lane has its own
// random() fork and counter shard, and a batch costs its slowest lane.
// Lanes run in lane order on the caller's goroutine; no goroutines are
// started.
func WithWorkers(n int) Option {
	return func(s *Switch) { s.workers = n }
}

// NewSwitch compiles the program for the profile and instantiates runtime
// state.
func NewSwitch(prog *Program, profile Profile, opts ...Option) (*Switch, error) {
	compiled, err := Compile(prog, profile)
	if err != nil {
		return nil, fmt.Errorf("pisa: compile %s for %s: %w", prog.Name, profile.Name, err)
	}
	return NewSwitchFromCompiled(compiled, opts...), nil
}

// NewSwitchFromCompiled instantiates runtime state for an already-compiled
// program (several switches can share one compilation).
func NewSwitchFromCompiled(compiled *Compiled, opts ...Option) *Switch {
	s := &Switch{
		compiled:  compiled,
		rng:       crypto.NewSeededRand(0x9a4aadd),
		mcast:     make(map[uint64][]int),
		crcIEEE:   crypto.IEEETable(),
		crcCast:   crypto.CastagnoliTable(),
		keyedIEEE: crypto.NewKeyedCRC32(),
		keyedCast: crypto.NewKeyedCRC32Castagnoli(),
		halfsip:   crypto.NewHalfSipHash24(),
	}
	for i, t := range compiled.Program.Tables {
		s.tables = append(s.tables, newTableState(t, &compiled.tables[i]))
	}
	for _, r := range compiled.Program.Registers {
		s.regs = append(s.regs, make([]atomic.Uint64, r.Entries))
	}
	s.execPool.New = func() any {
		return &execState{
			phv:   make([]uint64, len(compiled.slotWidth)),
			valid: make([]bool, len(compiled.Program.Headers)),
		}
	}
	for _, o := range opts {
		o(s)
	}
	if s.workers > 1 {
		s.lanes = newLanes(s)
	}
	return s
}

// Compiled exposes the compilation (resource report, profile).
func (s *Switch) Compiled() *Compiled { return s.compiled }

// --- driver-level runtime API (the attackable switch-software surface) ---

// InsertEntry installs a table entry.
func (s *Switch) InsertEntry(table string, e Entry) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	return s.tables[ti].insert(e)
}

// DeleteEntry removes the entry with the exact key from a table.
func (s *Switch) DeleteEntry(table string, key []KeyMatch) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	return s.tables[ti].remove(key)
}

// ClearTable removes all entries from a table.
func (s *Switch) ClearTable(table string) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	s.tables[ti].clear()
	return nil
}

// RegisterRead reads a register entry directly (the driver path).
func (s *Switch) RegisterRead(name string, index int) (uint64, error) {
	ri, ok := s.compiled.regIndex[name]
	if !ok {
		return 0, fmt.Errorf("pisa: unknown register %q", name)
	}
	if index < 0 || index >= len(s.regs[ri]) {
		return 0, fmt.Errorf("pisa: register %s index %d out of range [0,%d)", name, index, len(s.regs[ri]))
	}
	return s.regs[ri][index].Load(), nil
}

// RegisterWrite writes a register entry directly (the driver path).
func (s *Switch) RegisterWrite(name string, index int, v uint64) error {
	ri, ok := s.compiled.regIndex[name]
	if !ok {
		return fmt.Errorf("pisa: unknown register %q", name)
	}
	if index < 0 || index >= len(s.regs[ri]) {
		return fmt.Errorf("pisa: register %s index %d out of range [0,%d)", name, index, len(s.regs[ri]))
	}
	def := s.compiled.Program.Registers[ri]
	s.regs[ri][index].Store(v & mask(def.Width))
	return nil
}

// SetMulticastGroup configures the ports of a multicast group.
func (s *Switch) SetMulticastGroup(group uint64, ports []int) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.mcast[group] = append([]int(nil), ports...)
}

// Diagnostic counter IDs. The set is closed (the interpreter is the only
// writer), which is what lets the hot path drop the name map and lock for
// a fixed array of atomic cells.
const (
	cntParseError = iota
	cntRecircOverflow
	cntDropped
	cntNoEgress
	cntEgressDropped
	cntRegIndexWrap
	numDPCounters
)

// dpCounterNames maps counter IDs to their stable external names.
var dpCounterNames = [numDPCounters]string{
	cntParseError:     "parse_error",
	cntRecircOverflow: "recirc_overflow",
	cntDropped:        "dropped",
	cntNoEgress:       "no_egress",
	cntEgressDropped:  "egress_dropped",
	cntRegIndexWrap:   "reg_index_wrap",
}

// counterShardCount is the number of independent counter shards; ingress
// lane L bumps shard L % counterShardCount. Power of two, sized past any
// realistic worker count.
const counterShardCount = 8

// counterShard is one lane's counter cells, padded so shards bumped by
// different workers never share a cache line.
type counterShard struct {
	cells [numDPCounters]atomic.Uint64
	_     [128 - (numDPCounters*8)%128]byte
}

// counterByID sums one counter across all shards.
func (s *Switch) counterByID(id int) uint64 {
	var total uint64
	for i := range s.shards {
		total += s.shards[i].cells[id].Load()
	}
	return total
}

// Counter returns a named diagnostic counter (0 for unknown names),
// aggregated across all ingress lanes.
func (s *Switch) Counter(name string) uint64 {
	for id, n := range dpCounterNames {
		if n == name {
			return s.counterByID(id)
		}
	}
	return 0
}

// CounterValue is one named diagnostic counter reading.
type CounterValue struct {
	Name  string
	Value uint64
}

// counterSnapshotOrder lists counter IDs in lexicographic name order, so
// snapshots are deterministic without sorting per call.
var counterSnapshotOrder = func() [numDPCounters]int {
	var order [numDPCounters]int
	for i := range order {
		order[i] = i
	}
	sort.Slice(order[:], func(a, b int) bool {
		return dpCounterNames[order[a]] < dpCounterNames[order[b]]
	})
	return order
}()

// CounterSnapshot returns every diagnostic counter, aggregated across
// shards, in deterministic (lexicographic name) order. Each counter is
// read atomically; the snapshot as a whole is not a single atomic cut
// under concurrent traffic.
func (s *Switch) CounterSnapshot() []CounterValue {
	out := make([]CounterValue, 0, numDPCounters)
	for _, id := range counterSnapshotOrder {
		out = append(out, CounterValue{Name: dpCounterNames[id], Value: s.counterByID(id)})
	}
	return out
}

// MirrorCounters mirrors the switch's diagnostic counters into an obs
// registry under the given prefix (e.g. "dp.s1."). The mirror reads
// through the same sharded cells as Counter: counts accumulated before
// the mirror was installed are folded in here, so the obs view equals the
// switch's own from the moment of installation, and bump's hot path pays
// one atomic pointer load plus an indexed increment.
func (s *Switch) MirrorCounters(reg *obs.Registry, prefix string) {
	var arr [numDPCounters]*obs.Counter
	for id, name := range dpCounterNames {
		c := reg.Counter(prefix + name)
		if cur := s.counterByID(id); cur > c.Load() {
			c.Add(cur - c.Load())
		}
		arr[id] = c
	}
	s.mirror.Store(&arr)
}

func (s *Switch) bump(st *execState, id int) {
	s.shards[st.shard%counterShardCount].cells[id].Add(1)
	if mp := s.mirror.Load(); mp != nil {
		mp[id].Inc()
	}
}

// --- packet processing ---

type execState struct {
	phv     []uint64
	valid   []bool
	payload []byte
	passes  int

	// rng is the random source the random() extern draws from for this
	// packet: the switch's base source on the serial path (preserving the
	// exact pre-parallel draw order), a per-lane fork under workers.
	rng crypto.RandomSource
	// shard selects the counter shard this packet's bumps land in.
	shard uint32

	// Reusable scratch, pooled with the state.
	hashBuf  []byte
	hashData []byte
	keyVals  []uint64
	keyBuf   []byte
	dests    []int
}

func (s *Switch) getExec() *execState {
	st := s.execPool.Get().(*execState)
	clear(st.phv)
	clear(st.valid)
	st.payload = st.payload[:0]
	st.passes = 0
	st.dests = st.dests[:0]
	return st
}

func (s *Switch) putExec(st *execState) { s.execPool.Put(st) }

// Process runs one packet through the pipeline and returns its emissions
// and modeled cost. The returned Result owns its buffers.
func (s *Switch) Process(pkt Packet) (Result, error) {
	var res Result
	err := s.ProcessInto(pkt, &res)
	return res, err
}

// ProcessInto runs one packet through the pipeline, writing emissions and
// cost into res. Emission buffers in res are recycled: they are valid only
// until the next ProcessInto on the same Result. On error the contents of
// res are undefined.
func (s *Switch) ProcessInto(pkt Packet, res *Result) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.processInto(pkt, res, s.rng, 0)
}

// processInto is ProcessInto's body, run under the caller's stateMu read
// lock, with the packet's random source and counter shard chosen by the
// caller: the serial path passes the switch's base source and shard 0,
// ingress lanes pass their deterministic fork and lane shard. It runs the
// compiled program's resolved forms only.
func (s *Switch) processInto(pkt Packet, res *Result, rng crypto.RandomSource, shard uint32) error {
	c := s.compiled
	st := s.getExec()
	defer s.putExec(st)
	st.rng, st.shard = rng, shard

	res.Emissions = res.Emissions[:0]
	res.Passes = 0
	res.Cost = 0

	if err := s.extract(st, pkt.Data); err != nil {
		s.bump(st, cntParseError)
		return err
	}
	c.setIntrinsic(st.phv, metaIngressPort, uint64(pkt.Port))
	c.setIntrinsic(st.phv, metaTimestamp, s.now.Load())
	c.setIntrinsic(st.phv, metaPktLen, uint64(len(pkt.Data)))
	meta := st.phv[c.metaBase : c.metaBase+numIntrinsic]

	for pass := 0; ; pass++ {
		st.passes = pass + 1
		c.setIntrinsic(st.phv, metaPass, uint64(pass))
		meta[metaRecirc] = 0
		if err := s.exec(st, c.control, nil); err != nil {
			return err
		}
		if meta[metaRecirc] == 0 {
			break
		}
		if pass+1 >= c.Profile.MaxPasses {
			s.bump(st, cntRecircOverflow)
			meta[metaDrop] = 1
			break
		}
	}

	stages := c.StagesPerPass() + c.Usage.EgressStages
	res.Passes = st.passes
	res.Cost = c.Profile.PacketCost(stages, st.passes, len(st.payload))
	if meta[metaDrop] != 0 {
		s.bump(st, cntDropped)
		return nil
	}

	// Replication: copy-to-CPU plus multicast group or unicast port.
	dests := st.dests
	if meta[metaToCPU] != 0 {
		dests = append(dests, CPUPort)
	}
	switch {
	case meta[metaMcastGroup] != 0:
		dests = append(dests, s.mcast[meta[metaMcastGroup]]...)
	case meta[metaEgressPort] != 0:
		// Ports are 1-based; 0 means "no unicast decision".
		dests = append(dests, int(meta[metaEgressPort]))
	default:
		if len(dests) == 0 {
			s.bump(st, cntNoEgress)
		}
	}
	st.dests = dests

	// Egress pipeline per replica.
	for _, port := range dests {
		est := st
		if len(dests) > 1 || len(c.egress) > 0 {
			cp := s.getExec()
			copy(cp.phv, st.phv)
			copy(cp.valid, st.valid)
			cp.payload = append(cp.payload[:0], st.payload...)
			cp.rng, cp.shard = st.rng, st.shard
			est = cp
		}
		c.setIntrinsic(est.phv, metaEgressPort, uint64(port))
		if len(c.egress) > 0 {
			if err := s.exec(est, c.egress, nil); err != nil {
				if est != st {
					s.putExec(est)
				}
				return fmt.Errorf("egress: %w", err)
			}
			if est.phv[c.metaBase+metaDrop] != 0 {
				s.bump(st, cntEgressDropped)
				if est != st {
					s.putExec(est)
				}
				continue
			}
		}
		idx := len(res.Emissions)
		var buf []byte
		if idx < len(res.bufs) {
			buf = res.bufs[idx][:0]
		}
		buf = s.emit(est, buf)
		if idx < len(res.bufs) {
			res.bufs[idx] = buf
		} else {
			res.bufs = append(res.bufs, buf)
		}
		res.Emissions = append(res.Emissions, Emission{Port: port, Data: buf})
		if est != st {
			s.putExec(est)
		}
	}
	return nil
}

// extract runs the parser state machine over data, filling the PHV and
// header validity, and keeps what follows the last header as payload.
func (s *Switch) extract(st *execState, data []byte) error {
	c := s.compiled
	if len(c.parser) == 0 {
		st.payload = append(st.payload[:0], data...)
		return nil
	}
	rest := data
	for si, steps := c.parseStart, 0; si >= 0; steps++ {
		if steps > 64 {
			return fmt.Errorf("pisa: parser exceeded 64 states (loop?)")
		}
		state := &c.parser[si]
		if state.hdr >= 0 {
			h := &c.headers[state.hdr]
			if len(rest) < h.bytes {
				return fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", c.Program.Headers[state.hdr].Name, h.bytes, len(rest))
			}
			off := 0
			for slot := h.slot; slot < h.slot+h.fields; slot++ {
				st.phv[slot], off = unpackBits(rest, off, c.slotWidth[slot])
			}
			st.valid[state.hdr] = true
			rest = rest[h.bytes:]
		}
		si = state.dflt
		if state.sel >= 0 {
			if next, ok := state.next[st.phv[state.sel]]; ok {
				si = next
			}
		}
	}
	st.payload = append(st.payload[:0], rest...)
	return nil
}

// appendZeros extends b with n zero bytes (deparse packs bits by OR-ing,
// so fresh bytes must be cleared).
func appendZeros(b []byte, n int) []byte {
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	clear(b[len(b)-n:])
	return b
}

// emit serializes the valid headers in deparse order and the payload,
// appending to out.
func (s *Switch) emit(st *execState, out []byte) []byte {
	c := s.compiled
	for _, hi := range c.deparse {
		if !st.valid[hi] {
			continue
		}
		h := &c.headers[hi]
		base := len(out)
		out = appendZeros(out, h.bytes)
		off := 0
		for slot := h.slot; slot < h.slot+h.fields; slot++ {
			w := c.slotWidth[slot]
			off = packBits(out[base:], off, st.phv[slot]&mask(w), w)
		}
	}
	return append(out, st.payload...)
}

// eval reads a resolved operand. params is the running action's data.
func (st *execState) eval(v *val, params []uint64) (uint64, error) {
	switch v.kind {
	case valSlot:
		return st.phv[v.idx], nil
	case valParam:
		if int(v.idx) >= len(params) {
			return 0, fmt.Errorf("pisa: parameter %d unbound", v.idx)
		}
		return params[v.idx], nil
	}
	return v.c, nil
}

func rotl(v uint64, n uint64, width int) uint64 {
	n %= uint64(width)
	m := mask(width)
	v &= m
	return ((v << n) | (v >> (uint64(width) - n))) & m
}

// exec runs a resolved op list. params is the action data of the table
// entry whose action is running (nil in control flow).
func (s *Switch) exec(st *execState, ops []rop, params []uint64) error {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case OpSet, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
			a, err := st.eval(&op.a, params)
			if err != nil {
				return err
			}
			b, err := st.eval(&op.b, params)
			if err != nil {
				return err
			}
			var v uint64
			switch op.kind {
			case OpSet:
				v = a
			case OpAdd:
				v = a + b
			case OpSub:
				v = a - b
			case OpXor:
				v = a ^ b
			case OpAnd:
				v = a & b
			case OpOr:
				v = a | b
			case OpShl:
				if b < 64 {
					v = a << b
				}
			case OpShr:
				if b < 64 {
					v = a >> b
				}
			case OpRotl:
				v = rotl(a, b, bits.Len64(op.dmask))
			}
			st.phv[op.dst] = v & op.dmask
		case OpHash:
			v, err := s.hash(st, op, params)
			if err != nil {
				return err
			}
			st.phv[op.dst] = uint64(v) & op.dmask
		case OpRegRead, OpRegWrite, OpRegRMW:
			if err := s.regOp(st, op, params); err != nil {
				return err
			}
		case OpRandom:
			// The exec state's source: the base source on the serial path
			// (RandomSource implementations are concurrency-safe), a
			// per-lane deterministic fork under workers.
			st.phv[op.dst] = st.rng.Uint64() & op.dmask
		case OpSetValid:
			if !st.valid[op.x] {
				st.valid[op.x] = true
				h := &s.compiled.headers[op.x]
				clear(st.phv[h.slot : h.slot+h.fields])
			}
		case OpSetInvalid:
			st.valid[op.x] = false
		case OpApply:
			if err := s.apply(st, int(op.x)); err != nil {
				return err
			}
		case OpIf:
			take, err := st.cond(op, params)
			if err != nil {
				return err
			}
			branch := op.body[op.n:]
			if take {
				branch = op.body[:op.n]
			}
			if err := s.exec(st, branch, params); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pisa: runtime: unknown op kind %d", int(op.kind))
		}
	}
	return nil
}

// regOp runs a register read, write or read-modify-write. The index
// wraps modulo the bank size (counted in reg_index_wrap).
func (s *Switch) regOp(st *execState, op *rop, params []uint64) error {
	bank := s.regs[op.x]
	idx, err := st.eval(&op.b, params)
	if err != nil {
		return err
	}
	if idx >= uint64(len(bank)) {
		s.bump(st, cntRegIndexWrap)
		idx %= uint64(len(bank))
	}
	a, err := st.eval(&op.a, params)
	if err != nil {
		return err
	}
	// Each access is one atomic operation on its cell: the data plane's
	// stateful ALU is atomic per packet, and the replay-floor RMWMax
	// depends on it.
	cell := &bank[idx]
	var old uint64
	switch RMWKind(op.sub) {
	case RMWWrite:
		if op.dst >= 0 {
			old = cell.Swap(a & op.rmask)
		} else {
			cell.Store(a & op.rmask)
		}
	case RMWAdd, RMWMax, RMWXor:
		old = rmw(cell, RMWKind(op.sub), a, op.rmask)
	default:
		old = cell.Load()
	}
	if op.dst >= 0 {
		st.phv[op.dst] = old & op.dmask
	}
	return nil
}

// rmw applies an Add, Max or Xor update to cell with a compare-and-swap
// loop and returns the value it replaced.
func rmw(cell *atomic.Uint64, kind RMWKind, a, rmask uint64) uint64 {
	for {
		old := cell.Load()
		next := old
		switch kind {
		case RMWAdd:
			next = (old + a) & rmask
		case RMWMax:
			if a > old {
				next = a & rmask
			}
		case RMWXor:
			next = (old ^ a) & rmask
		}
		if next == old || cell.CompareAndSwap(old, next) {
			return old
		}
	}
}

// cond evaluates an OpIf's gateway condition.
func (st *execState) cond(op *rop, params []uint64) (bool, error) {
	if op.sub == 0 {
		return st.valid[op.x] != op.flag, nil
	}
	l, err := st.eval(&op.a, params)
	if err != nil {
		return false, err
	}
	r, err := st.eval(&op.b, params)
	if err != nil {
		return false, err
	}
	var res bool
	switch CmpKind(op.sub) {
	case CmpEq:
		res = l == r
	case CmpNe:
		res = l != r
	case CmpLt:
		res = l < r
	case CmpLe:
		res = l <= r
	case CmpGt:
		res = l > r
	case CmpGe:
		res = l >= r
	}
	return res != op.flag, nil
}

// hash serializes the inputs MSB-first at their widths (then the payload,
// when asked) and digests them on the op's hash unit.
func (s *Switch) hash(st *execState, op *rop, params []uint64) (uint32, error) {
	buf := slices.Grow(st.hashBuf[:0], int(op.n))[:op.n]
	clear(buf)
	st.hashBuf = buf
	off := 0
	for i := range op.in {
		in := &op.in[i]
		v, err := st.eval(in, params)
		if err != nil {
			return 0, err
		}
		off = packBits(buf, off, v&mask(int(in.width)), int(in.width))
	}
	data := buf
	if op.flag {
		st.hashData = append(append(st.hashData[:0], buf...), st.payload...)
		data = st.hashData
	}
	key, err := st.eval(&op.a, params)
	if err != nil {
		return 0, err
	}
	keyed := op.a.kind != valNone

	switch HashAlg(op.sub) {
	case HashCRC32:
		if keyed {
			return s.keyedIEEE.Sum32(key, data), nil
		}
		return crc32.Checksum(data, s.crcIEEE), nil
	case HashCRC32C:
		if keyed {
			return s.keyedCast.Sum32(key, data), nil
		}
		return crc32.Checksum(data, s.crcCast), nil
	case HashIdentity:
		var v uint32
		for _, b := range data {
			v = v<<8 | uint32(b)
		}
		return v, nil
	case HashHalfSipHash:
		return s.halfsip.Sum32(key, data), nil
	default:
		return 0, fmt.Errorf("pisa: runtime: unknown hash alg %d", op.sub)
	}
}

// apply matches a table and runs the hit entry's action, or the default
// action on a miss.
func (s *Switch) apply(st *execState, ti int) error {
	c := s.compiled
	ts, rt := s.tables[ti], &c.tables[ti]
	vals := st.keyVals[:0]
	for _, slot := range rt.keys {
		vals = append(vals, st.phv[slot])
	}
	st.keyVals = vals
	e, keyBuf := ts.lookup(vals, st.keyBuf)
	st.keyBuf = keyBuf
	ai, params := rt.dflt, ts.def.DefaultParams
	if e != nil {
		ai, params = e.act, e.Params
		if ai < 0 {
			return fmt.Errorf("pisa: table %s: entry references unknown action %q", ts.def.Name, e.Action)
		}
	}
	if ai < 0 {
		return nil // miss with no default: no-op
	}
	if a := c.Program.Actions[ai]; len(params) != len(a.Params) {
		return fmt.Errorf("pisa: table %s action %s: %d params bound, want %d", ts.def.Name, a.Name, len(params), len(a.Params))
	}
	return s.exec(st, c.actions[ai], params)
}
