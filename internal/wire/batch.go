package wire

import "fmt"

// Batch container framing.
//
// A batch frame coalesces several small sealed frames into one physical
// network frame: [MsgBatch tag] [count i32] then per entry a virtual
// send timestamp, a wall-clock send timestamp (zero when untraced) and
// the length-prefixed sealed sub-frame. The container is sealed again
// by the sender, so the wire carries an outer CRC over the whole batch
// and each sub-frame keeps its own seal — a receiver validates both,
// and a sub-frame extracted from a batch is indistinguishable from one
// that traveled alone. The tag byte itself lives at the RMI layer next
// to MsgCall/MsgReply; this file owns the entry layout and its
// hardened reader.

const (
	// MaxBatchEntries caps the declared sub-frame count of one batch.
	// An honest batcher flushes long before this; a hostile count past
	// it is rejected before any entry is read.
	MaxBatchEntries = 1024

	// batchEntryMinBytes is the smallest possible encoded entry: two
	// 8-byte timestamps plus a 4-byte length prefix covering a sealed
	// sub-frame, which is itself at least ChecksumSize+1 bytes.
	batchEntryMinBytes = 8 + 8 + 4 + ChecksumSize + 1
)

// BatchEntry is one coalesced frame: the virtual and wall-clock send
// timestamps its packet would have carried, and the sealed sub-frame.
// Frame is a view into the container's buffer — valid only until the
// container is recycled.
type BatchEntry struct {
	TS    int64
	Wall  int64
	Frame []byte
}

// AppendBatchEntry encodes one entry onto a batch under construction.
func AppendBatchEntry(m *Message, ts, wall int64, frame []byte) {
	m.AppendInt64(ts)
	m.AppendInt64(wall)
	m.AppendBytes(frame)
}

// CheckBatchCount validates a batch's declared entry count against the
// cap and the bytes actually present, before anything is allocated or
// dispatched. Rejections wrap ErrMalformedFrame.
func CheckBatchCount(m *Message, count int) error {
	if count <= 0 || count > MaxBatchEntries {
		return fmt.Errorf("%w: batch entry count %d (cap %d)", ErrMalformedFrame, count, MaxBatchEntries)
	}
	if count*batchEntryMinBytes > m.Remaining() {
		return fmt.Errorf("%w: batch declares %d entries but only %d payload bytes remain",
			ErrMalformedFrame, count, m.Remaining())
	}
	return nil
}

// ReadBatchEntry decodes the next entry as a zero-copy view. A short or
// empty sub-frame is a malformed container.
func ReadBatchEntry(m *Message) (BatchEntry, error) {
	e := BatchEntry{TS: m.ReadInt64(), Wall: m.ReadInt64()}
	e.Frame = m.ReadBytesView()
	if err := m.Err(); err != nil {
		return BatchEntry{}, err
	}
	if len(e.Frame) <= ChecksumSize {
		return BatchEntry{}, fmt.Errorf("%w: batch sub-frame of %d bytes", ErrMalformedFrame, len(e.Frame))
	}
	return e, nil
}
