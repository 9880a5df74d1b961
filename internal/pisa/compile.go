package pisa

import "fmt"

// Usage is the resource consumption of a compiled program, in absolute
// units of the Profile's capacities.
type Usage struct {
	PHVBits    int
	SRAMBlocks int
	TCAMBlocks int
	HashBits   int
	HashCalls  int
	Stages     int
	// EgressStages is the stage count of the egress pipeline (0 if the
	// program has no egress control).
	EgressStages int
	Passes       int
}

// UsagePercent is Usage normalized against a profile's capacities, as the
// Tofino compiler reports it (Table II).
type UsagePercent struct {
	PHV, SRAM, TCAM, Hash float64
}

// Percent normalizes the usage against the profile.
func (u Usage) Percent(p Profile) UsagePercent {
	pct := func(used, cap int) float64 {
		if cap <= 0 {
			return 0
		}
		return 100 * float64(used) / float64(cap)
	}
	return UsagePercent{
		PHV:  pct(u.PHVBits, p.PHVBits),
		SRAM: pct(u.SRAMBlocks, p.SRAMBlocks),
		TCAM: pct(u.TCAMBlocks, p.TCAMBlocks),
		Hash: pct(u.HashBits, p.HashBits),
	}
}

// Compiled is a program resolved and placed against a target profile.
//
// Compile resolves every name in the program once: field references
// become PHV slots or action-parameter indices, and headers, tables,
// actions, registers and parser states become indices. The packet path
// reads only the resolved forms below; the name maps serve Compile and
// the driver API, which address tables and registers by name.
type Compiled struct {
	Program *Program
	Profile Profile
	Usage   Usage

	slots       map[FieldRef]int
	slotWidth   []int
	headerIndex map[string]int
	tableIndex  map[string]int
	actionIndex map[string]int
	regIndex    map[string]int
	parserIndex map[string]int

	headers  []rheader // by header index
	metaBase int       // PHV slot of the first intrinsic metadata field

	control, egress []rop
	actions         [][]rop  // by action index
	tables          []rtable // by table index
	parser          []rstate // by parser state index
	parseStart      int
	deparse         []int // header indices in wire order
}

// rheader is a header resolved to its PHV slot range and wire length.
// A header's fields occupy consecutive slots in field order.
type rheader struct {
	slot, fields, bytes int
}

// rtable is a table with its key fields and actions resolved.
type rtable struct {
	keys    []int // key PHV slots
	widths  []int // key widths in bits
	keyBits int
	exact   bool  // every key component is an exact match
	acts    []int // action index of each Table.Actions entry
	dflt    int   // default action index, -1 for none
}

// rstate is a parser state with its header, select field and successor
// states resolved. A successor of -1 accepts the packet.
type rstate struct {
	hdr  int // header extracted, -1 for none
	sel  int // PHV slot selecting the successor, -1 for none
	next map[uint64]int
	dflt int
}

// Operand kinds of a val.
const (
	valNone  uint8 = iota // absent operand, reads as 0
	valConst              // immediate c
	valSlot               // PHV slot idx
	valParam              // action parameter idx
)

// val is a resolved Operand. width is the operand's bit width: the
// field or parameter width, 64 for constants.
type val struct {
	kind  uint8
	width uint8
	idx   int32
	c     uint64
}

// rop is an Op with every name resolved. Which fields are meaningful
// depends on kind:
//
//   - ALU ops and OpRandom: dst/dmask, sources a and b.
//   - OpHash: dst/dmask, sub = HashAlg, key a (valNone when unkeyed),
//     inputs in packed into n bytes, flag = append the payload.
//   - Register ops: x = register bank, rmask = its width mask, index b,
//     value a, sub = RMWKind (0 for OpRegRead), dst/dmask unless
//     OpRegWrite.
//   - OpSetValid, OpSetInvalid: x = header. OpApply: x = table.
//   - OpIf: sub = CmpKind over a and b, or 0 to test header x's
//     validity; flag negates; body holds the then-branch (its first n
//     ops) followed by the else-branch.
type rop struct {
	kind  OpKind
	sub   int32
	x     int32
	dst   int32 // -1 for none
	n     int32
	flag  bool
	dmask uint64
	rmask uint64
	a, b  val
	in    []val
	body  []rop
}

// nominal hash-input contribution of including the payload in a digest.
const payloadHashBits = 128

// exact-match entry overhead bits (pointers, version bits).
const exactEntryOverheadBits = 16

// Compile validates a program against a profile, resolves its names,
// allocates stages, and accounts resources. It is the analogue of running
// the target's P4 compiler and reading its resource summary.
func Compile(prog *Program, profile Profile) (*Compiled, error) {
	if err := prog.validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Program:     prog,
		Profile:     profile,
		slots:       make(map[FieldRef]int),
		headerIndex: make(map[string]int, len(prog.Headers)),
		tableIndex:  make(map[string]int, len(prog.Tables)),
		actionIndex: make(map[string]int, len(prog.Actions)),
		regIndex:    make(map[string]int, len(prog.Registers)),
		parserIndex: make(map[string]int, len(prog.Parser)),
	}
	c.resolveSlots()
	for i, t := range prog.Tables {
		c.tableIndex[t.Name] = i
	}
	for i, a := range prog.Actions {
		c.actionIndex[a.Name] = i
	}
	for i, r := range prog.Registers {
		c.regIndex[r.Name] = i
	}
	for i, s := range prog.Parser {
		c.parserIndex[s.Name] = i
	}

	if err := c.resolveTables(); err != nil {
		return nil, err
	}
	if err := c.resolveParser(); err != nil {
		return nil, err
	}
	var err error
	if c.control, err = c.resolveOps(nil, prog.Control, nil, 0); err != nil {
		return nil, err
	}
	if c.egress, err = c.resolveOps(nil, prog.EgressControl, nil, 0); err != nil {
		return nil, fmt.Errorf("egress: %w", err)
	}
	c.actions = make([][]rop, len(prog.Actions))
	for i, a := range prog.Actions {
		if c.actions[i], err = c.resolveOps(nil, a.Body, a, 0); err != nil {
			return nil, fmt.Errorf("action %s: %w", a.Name, err)
		}
	}
	if err := c.account(); err != nil {
		return nil, err
	}
	return c, nil
}

func containerBits(width int) int {
	switch {
	case width <= 8:
		return 8
	case width <= 16:
		return 16
	case width <= 32:
		return 32
	default:
		return 64
	}
}

func (c *Compiled) resolveSlots() {
	add := func(ref FieldRef, width int) {
		c.slots[ref] = len(c.slotWidth)
		c.slotWidth = append(c.slotWidth, width)
	}
	c.headers = make([]rheader, len(c.Program.Headers))
	for hi, h := range c.Program.Headers {
		c.headerIndex[h.Name] = hi
		c.headers[hi] = rheader{slot: len(c.slotWidth), fields: len(h.Fields), bytes: h.Bytes()}
		for _, f := range h.Fields {
			add(F(h.Name, f.Name), f.Width)
		}
	}
	c.metaBase = len(c.slotWidth)
	for _, f := range intrinsicFields {
		add(F(MetaHeader, f.Name), f.Width)
	}
	for _, f := range c.Program.Metadata {
		add(F(MetaHeader, f.Name), f.Width)
	}
	c.deparse = make([]int, len(c.Program.DeparseOrder))
	for i, name := range c.Program.DeparseOrder {
		c.deparse[i] = c.headerIndex[name]
	}
}

// setIntrinsic writes intrinsic metadata field k (a meta* index) into a
// PHV, masked to the field's width.
func (c *Compiled) setIntrinsic(phv []uint64, k int, v uint64) {
	phv[c.metaBase+k] = v & mask(intrinsicFields[k].Width)
}

// lookupRef resolves a field reference in the context of an action's
// parameter frame (act may be nil). Returns (slot, paramIndex, width):
// slot >= 0 for PHV fields, paramIndex >= 0 for action parameters.
func (c *Compiled) lookupRef(ref FieldRef, act *Action) (slot, paramIdx, width int, err error) {
	hdr, fld, err := ref.split()
	if err != nil {
		return -1, -1, 0, err
	}
	if hdr == ParamHeader {
		if act == nil {
			return -1, -1, 0, fmt.Errorf("pisa: %s referenced outside an action", ref)
		}
		for i, p := range act.Params {
			if p.Name == fld {
				return -1, i, p.Width, nil
			}
		}
		return -1, -1, 0, fmt.Errorf("pisa: action %s has no parameter %q", act.Name, fld)
	}
	s, ok := c.slots[ref]
	if !ok {
		return -1, -1, 0, fmt.Errorf("pisa: unknown field %s", ref)
	}
	return s, -1, c.slotWidth[s], nil
}

func (c *Compiled) resolveVal(o Operand, act *Action) (val, error) {
	if o.IsConst {
		return val{kind: valConst, width: 64, c: o.Const}, nil
	}
	slot, pidx, w, err := c.lookupRef(o.Ref, act)
	switch {
	case err != nil:
		return val{}, err
	case pidx >= 0:
		return val{kind: valParam, width: uint8(w), idx: int32(pidx)}, nil
	}
	return val{kind: valSlot, width: uint8(w), idx: int32(slot)}, nil
}

func (c *Compiled) resolveTables() error {
	c.tables = make([]rtable, len(c.Program.Tables))
	for ti, t := range c.Program.Tables {
		rt := &c.tables[ti]
		rt.keys, rt.widths, rt.exact = make([]int, len(t.Keys)), make([]int, len(t.Keys)), true
		for i, k := range t.Keys {
			slot, _, w, err := c.lookupRef(k.Field, nil)
			if err != nil {
				return fmt.Errorf("table %s: %w", t.Name, err)
			}
			rt.keys[i], rt.widths[i] = slot, w
			rt.keyBits += w
			rt.exact = rt.exact && k.Match == MatchExact
		}
		rt.acts = make([]int, len(t.Actions))
		for i, an := range t.Actions {
			rt.acts[i] = c.actionIndex[an]
		}
		rt.dflt = -1
		if t.Default != "" {
			rt.dflt = c.actionIndex[t.Default]
		}
	}
	return nil
}

func (c *Compiled) resolveParser() error {
	state := func(name string) int {
		if name == "" {
			return -1
		}
		return c.parserIndex[name]
	}
	c.parser = make([]rstate, len(c.Program.Parser))
	c.parseStart = c.parserIndex[ParserStart]
	for i, s := range c.Program.Parser {
		rs := rstate{hdr: -1, sel: -1, dflt: state(s.Default)}
		if s.Extract != "" {
			rs.hdr = c.headerIndex[s.Extract]
		}
		if s.Select != "" {
			slot, _, _, err := c.lookupRef(s.Select, nil)
			if err != nil {
				return fmt.Errorf("parser state %s: %w", s.Name, err)
			}
			rs.sel = slot
			rs.next = make(map[uint64]int, len(s.Transitions))
			for v, next := range s.Transitions {
				rs.next[v] = state(next)
			}
		}
		c.parser[i] = rs
	}
	return nil
}

const maxNesting = 16

// resolveOps appends the resolved form of ops to out. act is the action
// whose body ops is (nil for control flow).
func (c *Compiled) resolveOps(out []rop, ops []Op, act *Action, depth int) ([]rop, error) {
	if depth > maxNesting {
		return nil, fmt.Errorf("pisa: control flow nested deeper than %d", maxNesting)
	}
	if out == nil && len(ops) > 0 {
		out = make([]rop, 0, len(ops))
	}
	for i := range ops {
		r, err := c.resolveOp(&ops[i], act, depth)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, ops[i].Kind, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// resolveOp checks one op against the program and profile and resolves
// its names. Each step runs only while no earlier step failed, so the
// first failure is the one reported.
func (c *Compiled) resolveOp(op *Op, act *Action, depth int) (rop, error) {
	r := rop{kind: op.Kind, dst: -1}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	operand := func(o Operand) val {
		if err != nil {
			return val{}
		}
		v, e := c.resolveVal(o, act)
		err = e
		return v
	}
	dst := func() {
		if err != nil {
			return
		}
		slot, _, w, e := c.lookupRef(op.Dst, act)
		switch {
		case e != nil:
			err = e
		case slot < 0:
			fail("pisa: cannot write to action parameter %s", op.Dst)
		case op.Kind == OpRotl && w > c.Profile.ALUWidth:
			fail("pisa: rotate on %d-bit field exceeds %d-bit ALU", w, c.Profile.ALUWidth)
		default:
			r.dst, r.dmask = int32(slot), mask(w)
		}
	}
	register := func() {
		ri, ok := c.regIndex[op.Reg]
		if !ok {
			fail("pisa: unknown register %q", op.Reg)
			return
		}
		r.x, r.rmask = int32(ri), mask(c.Program.Registers[ri].Width)
	}
	header := func(name, format string) {
		hi, ok := c.headerIndex[name]
		if !ok {
			fail(format, name)
		}
		r.x = int32(hi)
	}

	switch op.Kind {
	case OpSet, OpRandom:
		dst()
		if op.Kind == OpSet {
			r.a = operand(op.A)
		}
	case OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
		dst()
		r.a = operand(op.A)
		r.b = operand(op.B)
	case OpHash:
		dst()
		if op.Alg == HashHalfSipHash && !c.Profile.AllowExterns {
			fail("pisa: extern hash %s not available on target %s", op.Alg, c.Profile.Name)
		}
		if op.Alg < HashCRC32 || op.Alg > HashHalfSipHash {
			fail("pisa: unknown hash algorithm %d", int(op.Alg))
		}
		if op.Key != nil {
			r.a = operand(*op.Key)
		}
		if len(op.Inputs) == 0 && !op.IncludePayload {
			fail("pisa: hash with no inputs")
		}
		r.sub, r.flag, r.in = int32(op.Alg), op.IncludePayload, make([]val, len(op.Inputs))
		bits := 0
		for i, in := range op.Inputs {
			r.in[i] = operand(in)
			bits += int(r.in[i].width)
		}
		r.n = int32((bits + 7) / 8)
	case OpRegRead:
		dst()
		register()
		r.b = operand(op.Index)
	case OpRegRMW:
		dst()
		register()
		if op.RMW < RMWAdd || op.RMW > RMWXor {
			fail("pisa: unknown RMW kind %d", int(op.RMW))
		}
		r.sub = int32(op.RMW)
		r.b = operand(op.Index)
		r.a = operand(op.A)
	case OpRegWrite:
		register()
		r.sub = int32(RMWWrite)
		r.b = operand(op.Index)
		r.a = operand(op.A)
	case OpSetValid, OpSetInvalid:
		header(op.Header, "pisa: unknown header %q")
	case OpApply:
		if act != nil {
			fail("pisa: table apply inside an action")
		}
		ti, ok := c.tableIndex[op.Table]
		if !ok {
			fail("pisa: unknown table %q", op.Table)
		}
		r.x = int32(ti)
	case OpIf:
		cond := op.Cond
		r.flag = cond.Negate
		if cond.ValidHeader != "" {
			header(cond.ValidHeader, "pisa: condition on unknown header %q")
		} else {
			if cond.Cmp < CmpEq || cond.Cmp > CmpGe {
				fail("pisa: condition with invalid comparison %d", int(cond.Cmp))
			}
			r.sub = int32(cond.Cmp)
			r.a = operand(cond.L)
			r.b = operand(cond.R)
		}
		if err == nil {
			body := make([]rop, 0, len(op.Then)+len(op.Else))
			if body, err = c.resolveOps(body, op.Then, act, depth+1); err == nil {
				r.n = int32(len(body))
				r.body, err = c.resolveOps(body, op.Else, act, depth+1)
			}
		}
	default:
		fail("pisa: unknown op kind %d", int(op.Kind))
	}
	return r, err
}

// --- stage allocation and resource accounting ---

// placer is the state the stage packers of one compilation share: for
// each PHV slot, the stamp of the stage that last wrote it. Every stage
// of every packer gets a fresh stamp, so advancing a packer's stage
// empties its written set without touching the slots.
type placer struct {
	c       *Compiled
	written []int32
	stamp   int32 // last stamp issued
}

// stagePacker greedily packs ops into stages respecting ALU, hash, and
// write-read dependency constraints.
type stagePacker struct {
	pl        *placer
	stamp     int32 // the current stage's stamp
	stages    int
	aluUsed   int
	hashCalls int
	hashBits  int
}

func (pl *placer) packer() stagePacker {
	pl.stamp++
	return stagePacker{pl: pl, stamp: pl.stamp, stages: 1}
}

func (sp *stagePacker) nextStage() {
	sp.stages++
	sp.aluUsed = 0
	sp.hashCalls = 0
	sp.hashBits = 0
	sp.pl.stamp++
	sp.stamp = sp.pl.stamp
}

// readsWritten reports whether v reads a slot written in the current
// stage.
func (sp *stagePacker) readsWritten(v val) bool {
	return v.kind == valSlot && sp.pl.written[v.idx] == sp.stamp
}

func (sp *stagePacker) write(slot int32) {
	if slot >= 0 {
		sp.pl.written[slot] = sp.stamp
	}
}

// placeALU places an op that reads a and b, takes cost ALU slots and
// writes dst.
func (sp *stagePacker) placeALU(op *rop, cost int) {
	if sp.readsWritten(op.a) || sp.readsWritten(op.b) || sp.aluUsed+cost > sp.pl.c.Profile.ALUOpsPerStage {
		sp.nextStage()
	}
	sp.aluUsed += cost
	sp.write(op.dst)
}

// regAccess counts per-pass register touches, by bank, for the hardware
// one-access rule. It is sparse: most branches touch no register.
type regAccess []regCount

type regCount struct{ bank, n int }

func (ra regAccess) find(bank int) int {
	for i := range ra {
		if ra[i].bank == bank {
			return i
		}
	}
	return -1
}

// touch records one more access to bank.
func (ra regAccess) touch(bank int) regAccess {
	if i := ra.find(bank); i >= 0 {
		ra[i].n++
		return ra
	}
	return append(ra, regCount{bank, 1})
}

// merge raises each count to at least other's.
func (ra regAccess) merge(other regAccess) regAccess {
	for _, o := range other {
		if i := ra.find(o.bank); i < 0 {
			ra = append(ra, o)
		} else if o.n > ra[i].n {
			ra[i].n = o.n
		}
	}
	return ra
}

// placeOps packs a list of ops and returns the register accesses they
// make in one pass.
func (pl *placer) placeOps(sp *stagePacker, ops []rop) regAccess {
	profile := &pl.c.Profile
	var regs regAccess
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case OpSet, OpRandom, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
			cost := 1
			if op.dmask > mask(profile.ALUWidth) {
				cost = 2
			}
			sp.placeALU(op, cost)
		case OpRegRead, OpRegWrite, OpRegRMW:
			regs = regs.touch(int(op.x))
			sp.placeALU(op, 1)
		case OpHash:
			bits, reads := 0, sp.readsWritten(op.a)
			if op.a.kind != valNone {
				bits += 64
			}
			for _, in := range op.in {
				bits += int(in.width)
				reads = reads || sp.readsWritten(in)
			}
			if op.flag {
				bits += payloadHashBits
			}
			if reads ||
				sp.hashCalls+1 > profile.HashCallsPerStage ||
				sp.hashBits+bits > profile.HashBitsPerStage {
				sp.nextStage()
			}
			sp.hashCalls++
			sp.hashBits += bits
			pl.c.Usage.HashCalls++
			pl.c.Usage.HashBits += bits
			sp.write(op.dst)
		case OpSetValid, OpSetInvalid:
			if sp.aluUsed+1 > profile.ALUOpsPerStage {
				sp.nextStage()
			}
			sp.aluUsed++
		case OpApply:
			rt := &pl.c.tables[op.x]
			// A table occupies a fresh stage: its match happens at stage
			// entry, its action ops execute within (and possibly beyond).
			sp.nextStage()
			// Exact tables hash their key.
			if rt.exact {
				sp.hashCalls++
				sp.hashBits += rt.keyBits
				pl.c.Usage.HashBits += rt.keyBits
			}
			// Deepest action bound: all permitted actions must fit.
			deepest := 0
			place := func(ai int) {
				inner := pl.packer()
				regs = regs.merge(pl.placeOps(&inner, pl.c.actions[ai]))
				deepest = max(deepest, inner.stages-1)
			}
			for _, ai := range rt.acts {
				place(ai)
			}
			if rt.dflt >= 0 {
				place(rt.dflt)
			}
			for j := 0; j < deepest; j++ {
				sp.nextStage()
			}
		case OpIf:
			// Both branches execute in the same stage window; the deeper
			// branch determines progress. Register accesses merge as max.
			thenSP, elseSP := pl.packer(), pl.packer()
			regs = regs.merge(pl.placeOps(&thenSP, op.body[:op.n]))
			regs = regs.merge(pl.placeOps(&elseSP, op.body[op.n:]))
			for j := 0; j < max(thenSP.stages, elseSP.stages); j++ {
				sp.nextStage()
			}
		}
	}
	return regs
}

func (c *Compiled) account() error {
	// PHV.
	for _, h := range c.Program.Headers {
		for _, f := range h.Fields {
			c.Usage.PHVBits += containerBits(f.Width)
		}
	}
	for _, f := range intrinsicFields {
		c.Usage.PHVBits += containerBits(f.Width)
	}
	for _, f := range c.Program.Metadata {
		c.Usage.PHVBits += containerBits(f.Width)
	}
	if c.Usage.PHVBits > c.Profile.PHVBits {
		return fmt.Errorf("pisa: program needs %d PHV bits, target %s has %d", c.Usage.PHVBits, c.Profile.Name, c.Profile.PHVBits)
	}

	// Tables: SRAM or TCAM.
	for ti, t := range c.Program.Tables {
		keyBits, exact := c.tables[ti].keyBits, c.tables[ti].exact
		actionDataBits := 0
		for _, ai := range c.tables[ti].acts {
			bits := 0
			for _, p := range c.Program.Actions[ai].Params {
				bits += p.Width
			}
			if bits > actionDataBits {
				actionDataBits = bits
			}
		}
		if exact {
			entryBits := keyBits + actionDataBits + exactEntryOverheadBits
			blocks := (t.Size*entryBits + SRAMBlockBits - 1) / SRAMBlockBits
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.SRAMBlocks += blocks
		} else {
			blocks := ((t.Size + TCAMBlockEntries - 1) / TCAMBlockEntries) *
				((keyBits + TCAMBlockKeyBits - 1) / TCAMBlockKeyBits)
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.TCAMBlocks += blocks
			// Action data for TCAM tables still lives in SRAM.
			if actionDataBits > 0 {
				blocks := (t.Size*actionDataBits + SRAMBlockBits - 1) / SRAMBlockBits
				if blocks < 1 {
					blocks = 1
				}
				c.Usage.SRAMBlocks += blocks
			}
		}
	}

	// Registers.
	for _, r := range c.Program.Registers {
		w := 32
		if r.Width > 32 {
			w = 64
		}
		blocks := (r.Entries*w + SRAMBlockBits - 1) / SRAMBlockBits
		if blocks < 1 {
			blocks = 1
		}
		c.Usage.SRAMBlocks += blocks
	}
	if c.Usage.SRAMBlocks > c.Profile.SRAMBlocks {
		return fmt.Errorf("pisa: program needs %d SRAM blocks, target %s has %d", c.Usage.SRAMBlocks, c.Profile.Name, c.Profile.SRAMBlocks)
	}
	if c.Usage.TCAMBlocks > c.Profile.TCAMBlocks {
		return fmt.Errorf("pisa: program needs %d TCAM blocks, target %s has %d", c.Usage.TCAMBlocks, c.Profile.Name, c.Profile.TCAMBlocks)
	}

	// Stages (hash usage accumulates inside placeOps).
	pl := &placer{c: c, written: make([]int32, len(c.slotWidth))}
	sp := pl.packer()
	regs := pl.placeOps(&sp, c.control)
	var egRegs regAccess
	if len(c.egress) > 0 {
		egSP := pl.packer()
		egRegs = pl.placeOps(&egSP, c.egress)
		if egSP.stages > c.Profile.Stages {
			return fmt.Errorf("pisa: egress pipeline needs %d stages, target %s has %d (no egress recirculation)",
				egSP.stages, c.Profile.Name, c.Profile.Stages)
		}
		c.Usage.EgressStages = egSP.stages
	}
	if c.Profile.StrictRegisterAccess {
		regName := func(bank int) string { return c.Program.Registers[bank].Name }
		for _, r := range regs {
			if r.n > 1 {
				return fmt.Errorf("pisa: register %q accessed %d times per pass; target %s allows one", regName(r.bank), r.n, c.Profile.Name)
			}
		}
		for _, r := range egRegs {
			if r.n > 1 {
				return fmt.Errorf("pisa: register %q accessed %d times per egress pass; target %s allows one", regName(r.bank), r.n, c.Profile.Name)
			}
			// Ingress and egress MAUs do not share register memory.
			if regs.find(r.bank) >= 0 {
				return fmt.Errorf("pisa: register %q used in both ingress and egress pipelines on target %s", regName(r.bank), c.Profile.Name)
			}
		}
	}
	if c.Usage.HashBits > c.Profile.HashBits {
		return fmt.Errorf("pisa: program needs %d hash bits, target %s has %d", c.Usage.HashBits, c.Profile.Name, c.Profile.HashBits)
	}

	c.Usage.Stages = sp.stages
	c.Usage.Passes = (sp.stages + c.Profile.Stages - 1) / c.Profile.Stages
	if c.Usage.Passes > c.Profile.MaxPasses {
		return fmt.Errorf("pisa: program needs %d stages = %d passes; target %s allows %d passes",
			sp.stages, c.Usage.Passes, c.Profile.Name, c.Profile.MaxPasses)
	}
	return nil
}

// StagesPerPass returns how many stages one pass of the compiled program
// occupies (capped at the profile's stage count).
func (c *Compiled) StagesPerPass() int {
	if c.Usage.Stages > c.Profile.Stages {
		return c.Profile.Stages
	}
	return c.Usage.Stages
}
