// Package wire implements the lightweight message encoding of the RMI
// protocol: little-endian buffers with the append_int /
// append_double_array style API that the paper's generated marshalers
// use (Figure 13), plus length-prefixed framing for stream transports.
//
// The encoding carries no per-object type information by itself; the
// serialization layer decides whether to write class IDs ("class" mode)
// or rely on call-site knowledge ("site" mode).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ErrShortMessage is reported when a read runs past the end of the
// message payload: a declared length or field sequence promised more
// bytes than the frame actually carries. That is by definition a
// protocol violation by the sender, so it wraps ErrMalformedFrame —
// errors.Is(err, ErrMalformedFrame) matches every short read.
var ErrShortMessage = fmt.Errorf("%w: read past end of message", ErrMalformedFrame)

// Message is a growable byte buffer written by marshalers and read by
// unmarshalers. The zero value is an empty message ready for appending.
type Message struct {
	buf []byte
	pos int
	err error
}

// NewMessage returns a message with the given initial capacity.
func NewMessage(capacity int) *Message {
	return &Message{buf: make([]byte, 0, capacity)}
}

// FromBytes wraps a received payload for reading.
func FromBytes(b []byte) *Message {
	return &Message{buf: b}
}

// Bytes returns the encoded payload.
func (m *Message) Bytes() []byte { return m.buf }

// Len returns the number of payload bytes.
func (m *Message) Len() int { return len(m.buf) }

// Remaining returns the number of unread bytes.
func (m *Message) Remaining() int { return len(m.buf) - m.pos }

// Err returns the sticky read error, if any read ran short.
func (m *Message) Err() error { return m.err }

// Fail poisons the message with err (first failure wins, like a short
// read). Decoders use it to reject a frame from code that cannot
// return an error directly — e.g. the allocation-budget and
// handle-table caps deep in the deserializer: after Fail every further
// read returns zero values, so declared lengths collapse to zero and
// no more memory is committed, and the top-level decode loop surfaces
// err through Err.
func (m *Message) Fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Rewind moves the read cursor back to the start of the payload.
func (m *Message) Rewind() {
	m.pos = 0
	m.err = nil
}

// ResetTo repoints the message at b for reading without allocating —
// the receive-loop alternative to FromBytes. The message does not take
// ownership of b; callers that pool their frame buffers must not
// release b while reads (or views, see ReadBytesView) are outstanding.
func (m *Message) ResetTo(b []byte) {
	m.buf = b
	m.pos = 0
	m.err = nil
}

// ensure appends n uninitialized bytes in one grow step and returns
// the freshly appended region for the caller to fill.
func (m *Message) ensure(n int) []byte {
	off := len(m.buf)
	if cap(m.buf)-off < n {
		grown := make([]byte, off, growCap(off+n, cap(m.buf)))
		copy(grown, m.buf)
		m.buf = grown
	}
	m.buf = m.buf[:off+n]
	return m.buf[off:]
}

// growCap doubles capacity until it covers need, so repeated bulk
// appends stay amortized-constant like the builtin append.
func growCap(need, cur int) int {
	c := cur * 2
	if c < need {
		c = need
	}
	if c < 64 {
		c = 64
	}
	return c
}

// --- appends -------------------------------------------------------

// AppendByte appends a single byte.
func (m *Message) AppendByte(b byte) { m.buf = append(m.buf, b) }

// AppendBool appends a boolean as one byte.
func (m *Message) AppendBool(b bool) {
	if b {
		m.buf = append(m.buf, 1)
	} else {
		m.buf = append(m.buf, 0)
	}
}

// AppendInt32 appends a little-endian int32.
func (m *Message) AppendInt32(v int32) {
	m.buf = binary.LittleEndian.AppendUint32(m.buf, uint32(v))
}

// AppendInt64 appends a little-endian int64.
func (m *Message) AppendInt64(v int64) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, uint64(v))
}

// AppendFloat64 appends an IEEE-754 double.
func (m *Message) AppendFloat64(v float64) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, math.Float64bits(v))
}

// AppendString appends a length-prefixed UTF-8 string.
func (m *Message) AppendString(s string) {
	m.AppendInt32(int32(len(s)))
	m.buf = append(m.buf, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func (m *Message) AppendBytes(b []byte) {
	m.AppendInt32(int32(len(b)))
	m.buf = append(m.buf, b...)
}

// AppendFloat64Slice appends a length-prefixed double array, the bulk
// transfer primitive of the paper's array marshaler
// (append_double_array in Figure 13). The buffer grows at most once —
// length prefix plus payload in a single reservation — and the encode
// loop is a straight PutUint64 sweep over the reserved region.
func (m *Message) AppendFloat64Slice(vs []float64) {
	dst := m.ensure(4 + 8*len(vs))
	binary.LittleEndian.PutUint32(dst, uint32(int32(len(vs))))
	dst = dst[4:]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// AppendInt64Slice appends a length-prefixed int64 array (single grow,
// see AppendFloat64Slice).
func (m *Message) AppendInt64Slice(vs []int64) {
	dst := m.ensure(4 + 8*len(vs))
	binary.LittleEndian.PutUint32(dst, uint32(int32(len(vs))))
	dst = dst[4:]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// --- reads ---------------------------------------------------------

func (m *Message) need(n int) bool {
	if m.err != nil {
		return false
	}
	if m.pos+n > len(m.buf) {
		m.err = fmt.Errorf("%w: need %d bytes at offset %d of %d",
			ErrShortMessage, n, m.pos, len(m.buf))
		return false
	}
	return true
}

// ReadU8 reads one byte.
func (m *Message) ReadU8() byte {
	if !m.need(1) {
		return 0
	}
	b := m.buf[m.pos]
	m.pos++
	return b
}

// ReadBool reads one boolean byte.
func (m *Message) ReadBool() bool { return m.ReadU8() != 0 }

// ReadInt32 reads a little-endian int32.
func (m *Message) ReadInt32() int32 {
	if !m.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(m.buf[m.pos:])
	m.pos += 4
	return int32(v)
}

// ReadInt64 reads a little-endian int64.
func (m *Message) ReadInt64() int64 {
	if !m.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(m.buf[m.pos:])
	m.pos += 8
	return int64(v)
}

// ReadFloat64 reads an IEEE-754 double.
func (m *Message) ReadFloat64() float64 {
	if !m.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(m.buf[m.pos:])
	m.pos += 8
	return math.Float64frombits(v)
}

// ReadString reads a length-prefixed string.
func (m *Message) ReadString() string {
	n := int(m.ReadInt32())
	if n < 0 || !m.need(n) {
		if m.err == nil {
			m.err = fmt.Errorf("%w: negative string length %d", ErrShortMessage, n)
		}
		return ""
	}
	s := string(m.buf[m.pos : m.pos+n])
	m.pos += n
	return s
}

// ReadBytesView reads a length-prefixed byte slice as a zero-copy view
// into the message buffer. The view is valid only while the frame is
// alive: on pooled receive paths the buffer is recycled once the
// message has been dispatched, so callers must either finish with the
// view before then or copy it out. The length is checked against the
// payload before the view is taken, so a copy sized by len(view) is
// bounded by the frame.
func (m *Message) ReadBytesView() []byte {
	n := int(m.ReadInt32())
	if n < 0 || !m.need(n) {
		if m.err == nil {
			m.err = fmt.Errorf("%w: negative bytes length %d", ErrShortMessage, n)
		}
		return nil
	}
	v := m.buf[m.pos : m.pos+n : m.pos+n]
	m.pos += n
	return v
}

// ReadFloat64SliceInto reads a length-prefixed double array into dst if
// dst has the right length (the reuse path of Figure 13); otherwise
// into carve(n), which must return a slice of length n. The length is
// checked against the remaining payload before carve is called, so a
// lying prefix never reaches it. It returns the slice holding the data
// and whether dst was reused.
func (m *Message) ReadFloat64SliceInto(dst []float64, carve func(n int) []float64) (vs []float64, reused bool) {
	n := int(m.ReadInt32())
	if n < 0 || !m.need(8*n) {
		if m.err == nil {
			m.err = fmt.Errorf("%w: bad double[] length %d", ErrShortMessage, n)
		}
		return nil, false
	}
	if len(dst) == n {
		vs, reused = dst, true
	} else {
		vs = carve(n)
	}
	for i := 0; i < n; i++ {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.buf[m.pos:]))
		m.pos += 8
	}
	return vs, reused
}

// ReadInt64SliceInto mirrors ReadFloat64SliceInto for int64 arrays.
func (m *Message) ReadInt64SliceInto(dst []int64, carve func(n int) []int64) (vs []int64, reused bool) {
	n := int(m.ReadInt32())
	if n < 0 || !m.need(8*n) {
		if m.err == nil {
			m.err = fmt.Errorf("%w: bad int[] length %d", ErrShortMessage, n)
		}
		return nil, false
	}
	if len(dst) == n {
		vs, reused = dst, true
	} else {
		vs = carve(n)
	}
	for i := 0; i < n; i++ {
		vs[i] = int64(binary.LittleEndian.Uint64(m.buf[m.pos:]))
		m.pos += 8
	}
	return vs, reused
}
