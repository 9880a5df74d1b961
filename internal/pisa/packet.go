package pisa

import "fmt"

// Packet is a raw packet: bytes on the wire plus the port it arrived on.
type Packet struct {
	// Data is the full packet, headers first.
	Data []byte
	// Port is the ingress port. Use CPUPort for PacketOut injections.
	Port int
}

// Clone returns a deep copy of the packet.
func (p Packet) Clone() Packet {
	d := make([]byte, len(p.Data))
	copy(d, p.Data)
	return Packet{Data: d, Port: p.Port}
}

// packBits writes the low `width` bits of v into buf starting at bit offset
// off (MSB-first), returning the new offset. Byte-aligned fields are
// written a byte at a time; others bit by bit.
func packBits(buf []byte, off int, v uint64, width int) int {
	if off%8 == 0 && width%8 == 0 {
		for i := (off+width)/8 - 1; i >= off/8; i-- {
			buf[i] |= byte(v)
			v >>= 8
		}
		return off + width
	}
	for i := width - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		if bit != 0 {
			buf[off/8] |= 1 << uint(7-off%8)
		}
		off++
	}
	return off
}

// unpackBits reads `width` bits from buf starting at bit offset off
// (MSB-first). Byte-aligned fields are read a byte at a time; others bit
// by bit.
func unpackBits(buf []byte, off, width int) (uint64, int) {
	var v uint64
	if off%8 == 0 && width%8 == 0 {
		for _, b := range buf[off/8 : (off+width)/8] {
			v = v<<8 | uint64(b)
		}
		return v, off + width
	}
	for i := 0; i < width; i++ {
		v <<= 1
		v |= uint64(buf[off/8]>>uint(7-off%8)) & 1
		off++
	}
	return v, off
}

// PackHeader serializes field values (in declaration order) per the header
// definition, MSB-first.
func PackHeader(def *HeaderDef, values []uint64) ([]byte, error) {
	if len(values) != len(def.Fields) {
		return nil, fmt.Errorf("pisa: header %s: got %d values for %d fields", def.Name, len(values), len(def.Fields))
	}
	buf := make([]byte, def.Bytes())
	off := 0
	for i, f := range def.Fields {
		off = packBits(buf, off, values[i]&mask(f.Width), f.Width)
	}
	return buf, nil
}

// UnpackHeader parses a header's field values from the front of data.
func UnpackHeader(def *HeaderDef, data []byte) ([]uint64, error) {
	if len(data) < def.Bytes() {
		return nil, fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", def.Name, def.Bytes(), len(data))
	}
	values := make([]uint64, len(def.Fields))
	off := 0
	for i, f := range def.Fields {
		values[i], off = unpackBits(data, off, f.Width)
	}
	return values, nil
}
