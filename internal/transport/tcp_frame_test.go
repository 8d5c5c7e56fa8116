package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cormi/internal/balance"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// rawFrame encodes one TCP frame exactly as writeFrame puts it on the
// wire.
func rawFrame(from int, ts, wall int64, payload []byte) []byte {
	b := make([]byte, tcpHeaderSize+len(payload))
	putFrameHeader(b, frameHeader{size: uint32(tcpMetaSize + len(payload)), from: from, ts: ts, wall: wall})
	copy(b[tcpHeaderSize:], payload)
	return b
}

// patterned returns n bytes that differ per seed, so one frame's bytes
// bleeding into another's show up.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i)
	}
	return b
}

// readLoopRig runs one readLoop of a bare endpoint against the read end
// of a net.Pipe; the test writes raw bytes into the other end. A pipe
// hands the reader exactly the chunks the writer wrote, which makes the
// split points of a stream deterministic.
type readLoopRig struct {
	t      *testing.T
	e      *tcpEndpoint
	w      net.Conn
	exited chan struct{}
	base   balance.Mark // taken when the rig was built
}

func newReadLoopRig(t *testing.T) *readLoopRig {
	r, w := net.Pipe()
	rig := &readLoopRig{
		t:      t,
		e:      &tcpEndpoint{id: 7, inbox: make(chan Packet, 256), done: make(chan struct{})},
		w:      w,
		exited: make(chan struct{}),
		base:   balance.Take(),
	}
	go func() {
		rig.e.readLoop(r)
		close(rig.exited)
	}()
	t.Cleanup(func() { w.Close() })
	return rig
}

// write feeds the stream to the read loop in the given chunks, from its
// own goroutine (a pipe write blocks until the reader takes it).
func (r *readLoopRig) write(chunks ...[]byte) {
	go func() {
		for _, c := range chunks {
			if _, err := r.w.Write(c); err != nil {
				return
			}
		}
	}()
}

// expect receives one packet, checks it against the frame's fields and
// recycles its payload.
func (r *readLoopRig) expect(from int, ts, wall int64, payload []byte) {
	r.t.Helper()
	select {
	case p := <-r.e.inbox:
		if p.From != from || p.To != r.e.id || p.TS != ts || p.Wall != wall {
			r.t.Fatalf("got from=%d to=%d ts=%d wall=%d, want from=%d to=%d ts=%d wall=%d",
				p.From, p.To, p.TS, p.Wall, from, r.e.id, ts, wall)
		}
		if (wall != 0) != (p.RecvWall != 0) {
			r.t.Fatalf("RecvWall=%d on a frame with wall=%d", p.RecvWall, wall)
		}
		if !bytes.Equal(p.Payload, payload) {
			r.t.Fatalf("payload of %d bytes differs from the %d bytes sent", len(p.Payload), len(payload))
		}
		wire.PutBuf(p.Payload)
	case <-time.After(10 * time.Second):
		r.t.Fatal("no packet delivered")
	}
}

// dropped asserts the read loop gave the connection up having delivered
// nothing further and holding no buffer.
func (r *readLoopRig) dropped() {
	r.t.Helper()
	select {
	case <-r.exited:
	case <-time.After(10 * time.Second):
		r.t.Fatal("read loop still running")
	}
	if _, err := r.w.Write([]byte{0}); err == nil {
		r.t.Error("write succeeded on a connection the read loop should have closed")
	}
	select {
	case p := <-r.e.inbox:
		r.t.Errorf("delivered a packet of %d bytes", len(p.Payload))
	default:
	}
	r.balanced()
}

// balanced asserts every buffer the read loop took has been returned
// and that the loop and its feeder are gone.
func (r *readLoopRig) balanced() {
	r.t.Helper()
	if err := r.base.Settled(nil); err != nil {
		r.t.Error(err)
	}
}

// eof ends the stream and waits for the read loop to wind down.
func (r *readLoopRig) eof() {
	r.t.Helper()
	r.w.Close()
	select {
	case <-r.exited:
	case <-time.After(10 * time.Second):
		r.t.Fatal("read loop did not exit at end of stream")
	}
	r.balanced()
}

func preamble() []byte {
	pre := wire.Preamble()
	return pre[:]
}

func TestReadLoopOneBytePerWrite(t *testing.T) {
	rig := newReadLoopRig(t)
	stream := preamble()
	for i := 0; i < 3; i++ {
		stream = append(stream, rawFrame(i, int64(100+i), int64(i), patterned(i, 10*i))...)
	}
	chunks := make([][]byte, len(stream))
	for i := range stream {
		chunks[i] = stream[i : i+1]
	}
	rig.write(chunks...)
	for i := 0; i < 3; i++ {
		rig.expect(i, int64(100+i), int64(i), patterned(i, 10*i))
	}
	rig.eof()
}

func TestReadLoopCoalescedFrames(t *testing.T) {
	rig := newReadLoopRig(t)
	// More frames than the inbox holds and more bytes than the reader
	// buffers, all in one Write.
	const frames = 1000
	stream := preamble()
	for i := 0; i < frames; i++ {
		stream = append(stream, rawFrame(3, int64(i), 0, patterned(i, i%97))...)
	}
	if len(stream) < 2*tcpReadBufSize {
		t.Fatalf("stream of %d bytes does not span the %d-byte reader", len(stream), tcpReadBufSize)
	}
	rig.write(stream)
	for i := 0; i < frames; i++ {
		rig.expect(3, int64(i), 0, patterned(i, i%97))
	}
	rig.eof()
}

func TestReadLoopFrameLargerThanReader(t *testing.T) {
	rig := newReadLoopRig(t)
	big := patterned(1, 3*tcpReadBufSize+17)
	rig.write(preamble(),
		rawFrame(0, 1, 0, patterned(0, 5)),
		rawFrame(0, 2, 0, big),
		rawFrame(0, 3, 0, patterned(2, 5)))
	rig.expect(0, 1, 0, patterned(0, 5))
	rig.expect(0, 2, 0, big)
	rig.expect(0, 3, 0, patterned(2, 5))
	rig.eof()
}

func TestReadLoopSkipsRuntFrame(t *testing.T) {
	rig := newReadLoopRig(t)
	// A frame too short to hold the metadata: length prefix, then that
	// many bytes.
	runt := binary.LittleEndian.AppendUint32(nil, tcpMetaSize-1)
	runt = append(runt, patterned(9, tcpMetaSize-1)...)
	rig.write(preamble(), rawFrame(1, 10, 0, []byte("before")), runt, []byte{0, 0, 0, 0}, rawFrame(1, 11, 0, []byte("after")))
	rig.expect(1, 10, 0, []byte("before"))
	rig.expect(1, 11, 0, []byte("after"))
	rig.eof()
}

func TestReadLoopDropsOversizeLength(t *testing.T) {
	rig := newReadLoopRig(t)
	hdr := make([]byte, tcpHeaderSize)
	putFrameHeader(hdr, frameHeader{size: wire.MaxFrameSize + 1, from: 1})
	rig.write(preamble(), hdr)
	rig.dropped()
}

func TestReadLoopDropsBadPreamble(t *testing.T) {
	rig := newReadLoopRig(t)
	bad := preamble()
	bad[0] ^= 0xff
	rig.write(bad, rawFrame(1, 1, 0, []byte("never parsed")))
	rig.dropped()
}

// TestFrameHeaderRoundTrip: parseFrameHeader inverts putFrameHeader for
// every field value, and the layout is the documented one — length
// prefix, sender id, virtual timestamp, wall timestamp, little endian —
// because a peer built from another commit parses the same bytes.
func TestFrameHeaderRoundTrip(t *testing.T) {
	prop := func(size uint32, from int32, ts, wall int64) bool {
		h := frameHeader{size: size, from: int(from), ts: ts, wall: wall}
		b := bytes.Repeat([]byte{0xa5}, tcpHeaderSize+3)
		putFrameHeader(b, h)
		var want []byte
		want = binary.LittleEndian.AppendUint32(want, size)
		want = binary.LittleEndian.AppendUint32(want, uint32(from))
		want = binary.LittleEndian.AppendUint64(want, uint64(ts))
		want = binary.LittleEndian.AppendUint64(want, uint64(wall))
		want = append(want, 0xa5, 0xa5, 0xa5)
		return bytes.Equal(b, want) && parseFrameHeader(b) == h
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTCPStalledPeerDoesNotBlockOthers: node 1 never calls Recv, so its
// inbox and then its socket fill and a Send addressed to it blocks in
// the kernel. A Send from the same endpoint to node 2 must still go
// through: writes are serialized per connection, not per endpoint.
func TestTCPStalledPeerDoesNotBlockOthers(t *testing.T) {
	base := wire.Stats().Outstanding
	nw, err := NewTCPNetworkLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	e0 := nw.Endpoint(0)

	var sent atomic.Int64
	stalled := make(chan error, 1)
	go func() {
		for {
			if err := e0.Send(Packet{To: 1, Payload: wire.GetBuf(64 << 10)}); err != nil {
				stalled <- err
				return
			}
			sent.Add(1)
		}
	}()
	// Wait until the sender stops making progress. Judging it stalled
	// too early only makes the test easier to pass, never fail.
	for last, quiet := int64(-1), 0; quiet < 20; {
		time.Sleep(10 * time.Millisecond)
		if n := sent.Load(); n != last || n == 0 {
			last, quiet = n, 0
		} else {
			quiet++
		}
	}

	through := make(chan error, 1)
	go func() { through <- e0.Send(Packet{To: 2, TS: 5, Payload: append(wire.GetBuf(0), "hello"...)}) }()
	select {
	case err := <-through:
		if err != nil {
			t.Fatalf("Send to node 2: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Send to node 2 waits on the write to stalled node 1")
	}
	p, ok := nw.Endpoint(2).Recv()
	if !ok || p.From != 0 || p.TS != 5 || string(p.Payload) != "hello" {
		t.Fatalf("node 2 got %+v ok=%v", p, ok)
	}
	wire.PutBuf(p.Payload)

	// Close fails the blocked write; its payload is recycled like any
	// other, and what node 1 never took is still there to drain.
	nw.Close()
	select {
	case err := <-stalled:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Send returned %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not release the Send blocked on node 1")
	}
	if err := e0.Send(Packet{To: 2, Payload: wire.GetBuf(8)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close returned %v, want ErrClosed", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for wire.Stats().Outstanding != base {
		if p, ok := nw.Endpoint(1).Recv(); ok {
			wire.PutBuf(p.Payload)
			continue
		}
		// Inbox empty; a read loop may still be returning its buffer.
		if time.Now().After(deadline) {
			t.Fatalf("%+d frame buffers outstanding after Close and drain", wire.Stats().Outstanding-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendRecyclesPayloadOnError: Send owns the payload on every return
// path, so a failed Send must leave the frame pool balanced too.
func TestSendRecyclesPayloadOnError(t *testing.T) {
	tcp, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultyNetwork(NewChannelNetwork(2, 4), FaultConfig{FaultRates: FaultRates{Drop: 1}})
	partitioned := NewFaultyNetwork(NewChannelNetwork(2, 4), FaultConfig{})
	partitioned.Partition(0, 1)
	for _, tc := range []struct {
		name    string
		nw      Network
		to      int
		close   bool
		wantErr bool
	}{
		{"tcp/bad-node", tcp, 9, false, true},
		{"tcp/closed", tcp, 1, true, true},
		{"channel/bad-node", NewChannelNetwork(2, 4), 9, false, true},
		{"channel/closed", NewChannelNetwork(2, 4), 1, true, true},
		{"faulty/drop", faulty, 1, false, false},
		{"faulty/partition", partitioned, 1, false, false},
	} {
		if tc.close {
			tc.nw.Close()
		}
		base := wire.Stats().Outstanding
		err := tc.nw.Endpoint(0).Send(Packet{To: tc.to, Payload: wire.GetBuf(32)})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Send returned %v", tc.name, err)
		}
		if out := wire.Stats().Outstanding - base; out != 0 {
			t.Errorf("%s: %+d frame buffers outstanding", tc.name, out)
		}
		tc.nw.Close()
	}
}

// TestTCPSteadyStateAllocs: once the connection is up and the buffers
// have grown, moving a pooled frame across loopback TCP allocates
// nothing on either side (AllocsPerRun counts every goroutine's
// allocations, the read loop's included).
func TestTCPSteadyStateAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates")
	}
	nw, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	hop := func() {
		if err := e0.Send(Packet{To: 1, TS: 1, Payload: wire.GetBuf(32)}); err != nil {
			t.Fatal(err)
		}
		p, ok := e1.Recv()
		if !ok || len(p.Payload) != 32 {
			t.Fatalf("got %d bytes ok=%v", len(p.Payload), ok)
		}
		wire.PutBuf(p.Payload)
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(2000, hop); allocs != 0 {
		t.Errorf("TCP Send+Recv of a pooled 32-byte frame: %v allocs/op, want 0", allocs)
	}
}

// ioSyscalls reads this process's lifetime read and write syscall
// counts from /proc/self/io.
func ioSyscalls(t *testing.T) (reads, writes int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no syscall counters on this platform: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			reads, _ = strconv.ParseInt(v, 10, 64)
		} else if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			writes, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return reads, writes
}

// TestTCPSyscallsPerFrame pins what the frame path is built for: one
// write syscall per frame, and one read that returns it plus the empty
// read that parks the read loop until the next frame (2 + 4.4 before).
// The bounds sit halfway to the old counts, so stray syscalls of the
// runtime cannot trip them.
func TestTCPSyscallsPerFrame(t *testing.T) {
	nw, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	hops := func(n int) {
		for i := 0; i < n; i++ {
			if err := e0.Send(Packet{To: 1, Payload: wire.GetBuf(32)}); err != nil {
				t.Fatal(err)
			}
			p, _ := e1.Recv()
			wire.PutBuf(p.Payload)
		}
	}
	hops(100)
	const n = 5000
	r0, w0 := ioSyscalls(t)
	hops(n)
	r1, w1 := ioSyscalls(t)
	reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
	t.Logf("per frame: %.2f write, %.2f read syscalls", writes, reads)
	if writes > 1.5 || reads > 3.2 {
		t.Errorf("per frame: %.2f write and %.2f read syscalls, want 1 and 2", writes, reads)
	}
}
