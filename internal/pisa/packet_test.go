package pisa

import (
	"bytes"
	"testing"
	"testing/quick"

	"p4auth/internal/crypto"
)

func TestPackUnpackRoundtrip(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{
		{Name: "a", Width: 4},
		{Name: "b", Width: 12},
		{Name: "c", Width: 32},
		{Name: "d", Width: 64},
		{Name: "e", Width: 16},
	}}
	if err := def.validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d, e uint64) bool {
		in := []uint64{a & mask(4), b & mask(12), c & mask(32), d, e & mask(16)}
		packed, err := PackHeader(def, in)
		if err != nil {
			return false
		}
		out, err := UnpackHeader(def, packed)
		if err != nil {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackHeaderMasksOversizedValues(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}
	packed, err := PackHeader(def, []uint64{0x1ff})
	if err != nil {
		t.Fatal(err)
	}
	if packed[0] != 0xff {
		t.Errorf("got %#x, want masked 0xff", packed[0])
	}
}

func TestPackHeaderWireOrderMSBFirst(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{
		{Name: "hi", Width: 8},
		{Name: "lo", Width: 8},
		{Name: "word", Width: 16},
	}}
	packed, err := PackHeader(def, []uint64{0xAB, 0xCD, 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xAB, 0xCD, 0x12, 0x34}
	if !bytes.Equal(packed, want) {
		t.Errorf("got % x, want % x", packed, want)
	}
}

func TestUnpackHeaderShortPacket(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{{Name: "x", Width: 32}}}
	if _, err := UnpackHeader(def, []byte{1, 2}); err == nil {
		t.Fatal("expected error for short packet")
	}
}

func TestHeaderValidation(t *testing.T) {
	tests := []struct {
		name string
		def  HeaderDef
		ok   bool
	}{
		{"valid", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 8}}}, true},
		{"unaligned", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 7}}}, false},
		{"zero width", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 0}}}, false},
		{"too wide", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 65}}}, false},
		{"dup field", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 8}, {Name: "a", Width: 8}}}, false},
		{"empty name", HeaderDef{Fields: []FieldDef{{Name: "a", Width: 8}}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.def.validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestPacketClone(t *testing.T) {
	p := Packet{Data: []byte{1, 2, 3}, Port: 4}
	c := p.Clone()
	c.Data[0] = 9
	if p.Data[0] != 1 {
		t.Error("clone shares backing array")
	}
}

// bitLoopPack and bitLoopUnpack are the one-bit-per-iteration reference
// forms of packBits and unpackBits.
func bitLoopPack(buf []byte, off int, v uint64, width int) int {
	for i := width - 1; i >= 0; i-- {
		if (v>>uint(i))&1 != 0 {
			buf[off/8] |= 1 << uint(7-off%8)
		}
		off++
	}
	return off
}

func bitLoopUnpack(buf []byte, off, width int) (uint64, int) {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<1 | uint64(buf[off/8]>>uint(7-off%8))&1
		off++
	}
	return v, off
}

// TestPackUnpackBitsMatchBitLoop checks packBits and unpackBits against
// the bit-loop reference at every bit offset in [0,64) and every width in
// [1,64], over buffers that are not zero (pack ORs into them) and values
// with bits set above the width (pack writes only the low bits).
func TestPackUnpackBitsMatchBitLoop(t *testing.T) {
	rng := crypto.NewSeededRand(0xb175)
	for off := 0; off < 64; off++ {
		for width := 1; width <= 64; width++ {
			for trial := 0; trial < 4; trial++ {
				var base [16]byte
				for i := range base {
					base[i] = byte(rng.Uint64())
				}
				if trial == 0 {
					base = [16]byte{}
				}
				v := rng.Uint64()
				got, want := base, base
				gotOff := packBits(got[:], off, v, width)
				wantOff := bitLoopPack(want[:], off, v, width)
				if got != want || gotOff != wantOff {
					t.Fatalf("packBits(off=%d, width=%d, %#x) = % x (off %d), want % x (off %d)",
						off, width, v, got, gotOff, want, wantOff)
				}
				gotV, gotOff := unpackBits(base[:], off, width)
				wantV, wantOff := bitLoopUnpack(base[:], off, width)
				if gotV != wantV || gotOff != wantOff {
					t.Fatalf("unpackBits(% x, off=%d, width=%d) = %#x (off %d), want %#x (off %d)",
						base, off, width, gotV, gotOff, wantV, wantOff)
				}
			}
		}
	}
}

func TestAppendZeros(t *testing.T) {
	b := appendZeros([]byte{1, 2}, 3)
	if !bytes.Equal(b, []byte{1, 2, 0, 0, 0}) {
		t.Fatalf("appendZeros = %v", b)
	}
	// Reused capacity holding stale bytes must come back cleared.
	b = appendZeros(b[:1], 4)
	if !bytes.Equal(b, []byte{1, 0, 0, 0, 0}) {
		t.Fatalf("appendZeros over stale capacity = %v", b)
	}
}
