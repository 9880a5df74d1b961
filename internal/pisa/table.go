package pisa

import "fmt"

// MatchKind is a table match type.
type MatchKind int

// Match kinds. Exact tables consume SRAM; ternary tables consume TCAM; LPM
// is implemented in TCAM on the modeled targets.
const (
	MatchExact MatchKind = iota + 1
	MatchTernary
	MatchLPM
)

func (m MatchKind) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	default:
		return fmt.Sprintf("MatchKind(%d)", int(m))
	}
}

// TableKey is one component of a table's match key.
type TableKey struct {
	Field FieldRef
	Match MatchKind
}

// Action is a named parameterized action. Parameter values from the
// matching entry are visible to Body ops as fields of the reserved header
// "param" (e.g. F("param", "port")).
type Action struct {
	Name   string
	Params []FieldDef
	Body   []Op
}

// ParamHeader is the reserved pseudo-header exposing action parameters.
const ParamHeader = "param"

// Table declares a match-action table.
type Table struct {
	Name    string
	Keys    []TableKey
	Size    int      // maximum entries; drives SRAM/TCAM accounting
	Actions []string // permitted action names
	// Default is the action run on a miss (empty = no-op). DefaultParams
	// supplies its parameters.
	Default       string
	DefaultParams []uint64
}

// KeyMatch is one key component of a table entry.
type KeyMatch struct {
	Value uint64
	// Mask applies to ternary keys (0 mask = wildcard everything).
	Mask uint64
	// PrefixLen applies to LPM keys.
	PrefixLen int
}

// EKey builds an exact-match key component.
func EKey(v uint64) KeyMatch { return KeyMatch{Value: v, Mask: ^uint64(0)} }

// TKey builds a ternary key component.
func TKey(v, mask uint64) KeyMatch { return KeyMatch{Value: v, Mask: mask} }

// PKey builds an LPM key component.
func PKey(v uint64, prefixLen int) KeyMatch { return KeyMatch{Value: v, PrefixLen: prefixLen} }

// Entry is a runtime table entry, installed through the driver interface.
type Entry struct {
	Key      []KeyMatch
	Priority int // higher wins among ternary matches
	Action   string
	Params   []uint64
}

// tableState is the runtime content of one table.
type tableState struct {
	def *Table
	rt  *rtable
	// exact index: concatenated key values -> entry
	exact map[string]*entry
	// ordered entries for ternary/lpm scan
	scan []*entry
}

// entry is an installed Entry with its action resolved to an index.
type entry struct {
	Entry
	act int
}

func newTableState(def *Table, rt *rtable) *tableState {
	return &tableState{def: def, rt: rt, exact: make(map[string]*entry)}
}

// appendExactKey appends the big-endian concatenation of vals to b — the
// exact-match map key bytes.
func appendExactKey(b []byte, vals []uint64) []byte {
	for _, v := range vals {
		b = append(b,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return b
}

func exactKeyString(vals []uint64) string {
	return string(appendExactKey(make([]byte, 0, len(vals)*8), vals))
}

func (ts *tableState) insert(e Entry) error {
	if len(e.Key) != len(ts.def.Keys) {
		return fmt.Errorf("pisa: table %s: entry has %d key parts, want %d", ts.def.Name, len(e.Key), len(ts.def.Keys))
	}
	ec := &entry{Entry: e, act: -1}
	for i, a := range ts.def.Actions {
		if a == e.Action {
			ec.act = ts.rt.acts[i]
			break
		}
	}
	if ec.act < 0 {
		return fmt.Errorf("pisa: table %s: action %q not permitted", ts.def.Name, e.Action)
	}
	if ts.entryCount() >= ts.def.Size {
		return fmt.Errorf("pisa: table %s: full (%d entries)", ts.def.Name, ts.def.Size)
	}
	ec.Key = append([]KeyMatch(nil), e.Key...)
	ec.Params = append([]uint64(nil), e.Params...)
	if ts.rt.exact {
		vals := make([]uint64, len(ec.Key))
		for i, k := range ec.Key {
			vals[i] = k.Value
		}
		ts.exact[exactKeyString(vals)] = ec
		return nil
	}
	ts.scan = append(ts.scan, ec)
	return nil
}

func (ts *tableState) entryCount() int {
	if ts.rt.exact {
		return len(ts.exact)
	}
	return len(ts.scan)
}

// lookup finds the matching entry for the key values, or nil on miss.
// keyBuf is caller-owned scratch for the exact-match key bytes; the
// (possibly grown) buffer is returned so the caller can keep it.
func (ts *tableState) lookup(vals []uint64, keyBuf []byte) (*entry, []byte) {
	if ts.rt.exact {
		keyBuf = appendExactKey(keyBuf[:0], vals)
		// string(keyBuf) in the index expression does not allocate.
		return ts.exact[string(keyBuf)], keyBuf
	}
	var best *entry
	bestPrio, bestPrefix := -1, -1
	for _, e := range ts.scan {
		if !ts.entryMatches(e, vals) {
			continue
		}
		prefix := 0
		for i, k := range ts.def.Keys {
			if k.Match == MatchLPM {
				prefix += e.Key[i].PrefixLen
			}
		}
		if prefix > bestPrefix || (prefix == bestPrefix && e.Priority > bestPrio) {
			best, bestPrio, bestPrefix = e, e.Priority, prefix
		}
	}
	return best, keyBuf
}

func (ts *tableState) entryMatches(e *entry, vals []uint64) bool {
	for i, k := range ts.def.Keys {
		km := e.Key[i]
		switch k.Match {
		case MatchExact:
			if vals[i] != km.Value {
				return false
			}
		case MatchTernary:
			if vals[i]&km.Mask != km.Value&km.Mask {
				return false
			}
		case MatchLPM:
			w := ts.rt.widths[i]
			if km.PrefixLen > w {
				return false
			}
			m := mask(w) &^ mask(w-km.PrefixLen)
			if vals[i]&m != km.Value&m {
				return false
			}
		}
	}
	return true
}

func (ts *tableState) clear() {
	ts.exact = make(map[string]*entry)
	ts.scan = nil
}

// keysEqual reports whether two entry keys are identical component-wise.
func keysEqual(a, b []KeyMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ts *tableState) remove(key []KeyMatch) error {
	if len(key) != len(ts.def.Keys) {
		return fmt.Errorf("pisa: table %s: delete key has %d parts, want %d", ts.def.Name, len(key), len(ts.def.Keys))
	}
	if ts.rt.exact {
		vals := make([]uint64, len(key))
		for i, k := range key {
			vals[i] = k.Value
		}
		ks := exactKeyString(vals)
		if _, ok := ts.exact[ks]; !ok {
			return fmt.Errorf("pisa: table %s: no entry for key", ts.def.Name)
		}
		delete(ts.exact, ks)
		return nil
	}
	for i, e := range ts.scan {
		if keysEqual(e.Key, key) {
			ts.scan = append(ts.scan[:i], ts.scan[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("pisa: table %s: no entry for key", ts.def.Name)
}
