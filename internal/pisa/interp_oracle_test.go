package pisa

import (
	"fmt"
	"hash/crc32"
)

// A name-resolving interpreter for compiled programs: the differential
// oracle of the resolved executor (FuzzResolvedVsInterpreter). It walks
// the Program's Op trees directly and resolves every field, header,
// table, action and parser-state name through the Compiled name maps on
// each use. It shares the switch's runtime state (tables, registers,
// counters, multicast groups) and emission-buffer handling with the
// resolved path, so two switches built alike must agree op for op.

// OracleProcessInto runs one packet through the interpreter, as
// ProcessInto does through the resolved program.
func (s *Switch) OracleProcessInto(pkt Packet, res *Result) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()

	st := s.getExec()
	defer s.putExec(st)
	st.rng, st.shard = s.rng, 0

	res.Emissions = res.Emissions[:0]
	res.Passes = 0
	res.Cost = 0

	if err := s.oracleParse(st, pkt.Data); err != nil {
		s.bump(st, cntParseError)
		return err
	}
	s.oracleSetMeta(st, MetaIngressPort, uint64(pkt.Port))
	s.oracleSetMeta(st, MetaTimestamp, s.now.Load())
	s.oracleSetMeta(st, MetaPktLen, uint64(len(pkt.Data)))

	maxPasses := s.compiled.Profile.MaxPasses
	for pass := 0; ; pass++ {
		st.passes = pass + 1
		s.oracleSetMeta(st, MetaPass, uint64(pass))
		s.oracleSetMeta(st, MetaRecirc, 0)
		if err := s.oracleRunOps(st, s.compiled.Program.Control, nil); err != nil {
			return err
		}
		if s.oracleGetMeta(st, MetaRecirc) == 0 {
			break
		}
		if pass+1 >= maxPasses {
			s.bump(st, cntRecircOverflow)
			s.oracleSetMeta(st, MetaDrop, 1)
			break
		}
	}

	stages := s.compiled.StagesPerPass() + s.compiled.Usage.EgressStages
	res.Passes = st.passes
	res.Cost = s.compiled.Profile.PacketCost(stages, st.passes, len(st.payload))
	if s.oracleGetMeta(st, MetaDrop) != 0 {
		s.bump(st, cntDropped)
		return nil
	}

	// Replication: copy-to-CPU plus multicast group or unicast port.
	dests := st.dests
	if s.oracleGetMeta(st, MetaToCPU) != 0 {
		dests = append(dests, CPUPort)
	}
	switch {
	case s.oracleGetMeta(st, MetaMcastGroup) != 0:
		dests = append(dests, s.mcast[s.oracleGetMeta(st, MetaMcastGroup)]...)
	case s.oracleGetMeta(st, MetaEgressPort) != 0:
		// Ports are 1-based; 0 means "no unicast decision".
		dests = append(dests, int(s.oracleGetMeta(st, MetaEgressPort)))
	default:
		if len(dests) == 0 {
			s.bump(st, cntNoEgress)
		}
	}
	st.dests = dests

	// Egress pipeline per replica.
	for _, port := range dests {
		est := st
		if len(dests) > 1 || len(s.compiled.Program.EgressControl) > 0 {
			cp := s.getExec()
			copy(cp.phv, st.phv)
			copy(cp.valid, st.valid)
			cp.payload = append(cp.payload[:0], st.payload...)
			cp.rng, cp.shard = st.rng, st.shard
			est = cp
		}
		s.oracleSetMeta(est, MetaEgressPort, uint64(port)&mask(16))
		if len(s.compiled.Program.EgressControl) > 0 {
			if err := s.oracleRunOps(est, s.compiled.Program.EgressControl, nil); err != nil {
				if est != st {
					s.putExec(est)
				}
				return fmt.Errorf("egress: %w", err)
			}
			if s.oracleGetMeta(est, MetaDrop) != 0 {
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
		buf = s.oracleDeparse(est, buf)
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

func (s *Switch) oracleMetaSlot(name string) int {
	return s.compiled.slots[F(MetaHeader, name)]
}

func (s *Switch) oracleSetMeta(st *execState, name string, v uint64) {
	slot := s.oracleMetaSlot(name)
	st.phv[slot] = v & mask(s.compiled.slotWidth[slot])
}

func (s *Switch) oracleGetMeta(st *execState, name string) uint64 {
	return st.phv[s.oracleMetaSlot(name)]
}

func (s *Switch) oracleParse(st *execState, data []byte) error {
	prog := s.compiled.Program
	if len(prog.Parser) == 0 {
		st.payload = append(st.payload[:0], data...)
		return nil
	}
	rest := data
	stateName := ParserStart
	for steps := 0; ; steps++ {
		if steps > 64 {
			return fmt.Errorf("pisa: parser exceeded 64 states (loop?)")
		}
		si, ok := s.compiled.parserIndex[stateName]
		if !ok {
			return fmt.Errorf("pisa: parser transitioned to unknown state %q", stateName)
		}
		state := prog.Parser[si]
		if state.Extract != "" {
			hi := s.compiled.headerIndex[state.Extract]
			def := prog.Headers[hi]
			if len(rest) < def.Bytes() {
				return fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", def.Name, def.Bytes(), len(rest))
			}
			off := 0
			for fi, slot := range s.oracleHeaderSlots(hi) {
				st.phv[slot], off = unpackBits(rest, off, def.Fields[fi].Width)
			}
			st.valid[hi] = true
			rest = rest[def.Bytes():]
		}
		next := state.Default
		if state.Select != "" {
			slot := s.compiled.slots[state.Select]
			if n, ok := state.Transitions[st.phv[slot]]; ok {
				next = n
			}
		}
		if next == "" {
			break
		}
		stateName = next
	}
	st.payload = append(st.payload[:0], rest...)
	return nil
}

// oracleHeaderSlots resolves a header's field slots by name.
func (s *Switch) oracleHeaderSlots(hi int) []int {
	def := s.compiled.Program.Headers[hi]
	slots := make([]int, len(def.Fields))
	for i, f := range def.Fields {
		slots[i] = s.compiled.slots[F(def.Name, f.Name)]
	}
	return slots
}

// oracleDeparse serializes the valid headers and payload, appending into out.
func (s *Switch) oracleDeparse(st *execState, out []byte) []byte {
	prog := s.compiled.Program
	for _, name := range prog.DeparseOrder {
		hi := s.compiled.headerIndex[name]
		if !st.valid[hi] {
			continue
		}
		def := prog.Headers[hi]
		base := len(out)
		out = appendZeros(out, def.Bytes())
		off := 0
		for fi, slot := range s.oracleHeaderSlots(hi) {
			w := def.Fields[fi].Width
			off = packBits(out[base:], off, st.phv[slot]&mask(w), w)
		}
	}
	return append(out, st.payload...)
}

type execFrame struct {
	params []uint64
}

// oracleEval resolves operands that may reference action parameters.
func (s *Switch) oracleEval(st *execState, o Operand, act *Action, frame *execFrame) (uint64, error) {
	if o.IsConst {
		return o.Const, nil
	}
	slot, pidx, _, err := s.compiled.lookupRef(o.Ref, act)
	if err != nil {
		return 0, err
	}
	if pidx >= 0 {
		if frame == nil || pidx >= len(frame.params) {
			return 0, fmt.Errorf("pisa: parameter %s unbound", o.Ref)
		}
		return frame.params[pidx], nil
	}
	return st.phv[slot], nil
}

func (s *Switch) oracleRunOps(st *execState, ops []Op, actFrame *opContext) error {
	var act *Action
	var frame *execFrame
	if actFrame != nil {
		act, frame = actFrame.act, actFrame.frame
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpSet, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
			a, err := s.oracleEval(st, op.A, act, frame)
			if err != nil {
				return err
			}
			var b uint64
			if op.Kind != OpSet {
				if b, err = s.oracleEval(st, op.B, act, frame); err != nil {
					return err
				}
			}
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			var v uint64
			switch op.Kind {
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
				if b >= 64 {
					v = 0
				} else {
					v = a << b
				}
			case OpShr:
				if b >= 64 {
					v = 0
				} else {
					v = a >> b
				}
			case OpRotl:
				v = rotl(a, b, w)
			}
			st.phv[slot] = v & mask(w)
		case OpHash:
			v, err := s.oracleHash(st, op, act, frame)
			if err != nil {
				return err
			}
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			st.phv[slot] = uint64(v) & mask(w)
		case OpRegRead, OpRegWrite, OpRegRMW:
			ri := s.compiled.regIndex[op.Reg]
			def := s.compiled.Program.Registers[ri]
			idx, err := s.oracleEval(st, op.Index, act, frame)
			if err != nil {
				return err
			}
			if idx >= uint64(def.Entries) {
				s.bump(st, cntRegIndexWrap)
				idx %= uint64(def.Entries)
			}
			switch op.Kind {
			case OpRegRead:
				slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
				if err != nil {
					return err
				}
				v := s.regs[ri][idx].Load()
				st.phv[slot] = v & mask(w)
			case OpRegWrite:
				v, err := s.oracleEval(st, op.A, act, frame)
				if err != nil {
					return err
				}
				s.regs[ri][idx].Store(v & mask(def.Width))
			case OpRegRMW:
				a, err := s.oracleEval(st, op.A, act, frame)
				if err != nil {
					return err
				}
				slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
				if err != nil {
					return err
				}
				// A compare-and-swap loop keeps the read-modify-write one
				// atomic step on its cell: the data plane's stateful ALU is
				// atomic per packet, and the replay-floor RMWMax depends
				// on it.
				cell := &s.regs[ri][idx]
				for {
					old := cell.Load()
					var next uint64
					switch op.RMW {
					case RMWAdd:
						next = old + a
					case RMWWrite:
						next = a
					case RMWMax:
						next = old
						if a > old {
							next = a
						}
					case RMWXor:
						next = old ^ a
					}
					if cell.CompareAndSwap(old, next&mask(def.Width)) {
						st.phv[slot] = old & mask(w)
						break
					}
				}
			}
		case OpRandom:
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			// The exec state's source: the base source on the serial path
			// (RandomSource implementations are concurrency-safe), a
			// per-lane deterministic fork under workers.
			r := st.rng.Uint64()
			st.phv[slot] = r & mask(w)
		case OpSetValid:
			hi := s.compiled.headerIndex[op.Header]
			if !st.valid[hi] {
				st.valid[hi] = true
				for _, slot := range s.oracleHeaderSlots(hi) {
					st.phv[slot] = 0
				}
			}
		case OpSetInvalid:
			st.valid[s.compiled.headerIndex[op.Header]] = false
		case OpApply:
			if err := s.oracleApplyTable(st, op.Table); err != nil {
				return err
			}
		case OpIf:
			take, err := s.oracleCond(st, op.Cond, act, frame)
			if err != nil {
				return err
			}
			branch := op.Then
			if !take {
				branch = op.Else
			}
			if err := s.oracleRunOps(st, branch, actFrame); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pisa: runtime: unknown op kind %d", int(op.Kind))
		}
	}
	return nil
}

type opContext struct {
	act   *Action
	frame *execFrame
}

func (s *Switch) oracleCond(st *execState, cond Cond, act *Action, frame *execFrame) (bool, error) {
	if cond.ValidHeader != "" {
		v := st.valid[s.compiled.headerIndex[cond.ValidHeader]]
		if cond.Negate {
			v = !v
		}
		return v, nil
	}
	l, err := s.oracleEval(st, cond.L, act, frame)
	if err != nil {
		return false, err
	}
	r, err := s.oracleEval(st, cond.R, act, frame)
	if err != nil {
		return false, err
	}
	var res bool
	switch cond.Cmp {
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
	if cond.Negate {
		res = !res
	}
	return res, nil
}

func (s *Switch) oracleHash(st *execState, op *Op, act *Action, frame *execFrame) (uint32, error) {
	// Serialize inputs MSB-first at declared widths, then payload.
	totalBits := 0
	var vals []uint64
	var widths []int
	for _, in := range op.Inputs {
		v, err := s.oracleEval(st, in, act, frame)
		if err != nil {
			return 0, err
		}
		w := 64
		if !in.IsConst {
			_, _, fw, _ := s.compiled.lookupRef(in.Ref, act)
			w = fw
		}
		vals = append(vals, v)
		widths = append(widths, w)
		totalBits += w
	}
	nbytes := (totalBits + 7) / 8
	if cap(st.hashBuf) < nbytes {
		st.hashBuf = make([]byte, nbytes)
	}
	buf := st.hashBuf[:nbytes]
	for i := range buf {
		buf[i] = 0
	}
	off := 0
	for i := range vals {
		off = packBits(buf, off, vals[i]&mask(widths[i]), widths[i])
	}
	data := buf
	if op.IncludePayload {
		st.hashData = append(append(st.hashData[:0], buf...), st.payload...)
		data = st.hashData
	}

	var key uint64
	if op.Key != nil {
		k, err := s.oracleEval(st, *op.Key, act, frame)
		if err != nil {
			return 0, err
		}
		key = k
	}

	switch op.Alg {
	case HashCRC32:
		if op.Key != nil {
			return s.keyedIEEE.Sum32(key, data), nil
		}
		return crc32.Checksum(data, s.crcIEEE), nil
	case HashCRC32C:
		if op.Key != nil {
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
		return 0, fmt.Errorf("pisa: runtime: unknown hash alg %d", int(op.Alg))
	}
}

func (s *Switch) oracleApplyTable(st *execState, name string) error {
	ti := s.compiled.tableIndex[name]
	ts := s.tables[ti]
	def := ts.def
	var vals []uint64
	for _, k := range def.Keys {
		slot, _, _, err := s.compiled.lookupRef(k.Field, nil)
		if err != nil {
			return err
		}
		vals = append(vals, st.phv[slot])
	}
	entry, keyBuf := ts.lookup(vals, st.keyBuf)
	st.keyBuf = keyBuf
	actionName := def.Default
	var params []uint64
	if entry != nil {
		actionName, params = entry.Action, entry.Params
	} else if actionName != "" {
		params = def.DefaultParams
	}
	if actionName == "" {
		return nil // miss with no default: no-op
	}
	a := s.compiled.Program.Action(actionName)
	if a == nil {
		return fmt.Errorf("pisa: table %s: entry references unknown action %q", name, actionName)
	}
	if len(params) != len(a.Params) {
		return fmt.Errorf("pisa: table %s action %s: %d params bound, want %d", name, actionName, len(params), len(a.Params))
	}
	return s.oracleRunOps(st, a.Body, &opContext{act: a, frame: &execFrame{params: params}})
}
