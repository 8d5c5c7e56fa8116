package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"cormi/internal/wire"
)

// TCPNetwork connects nodes over TCP with length-prefixed frames. Each
// frame carries a 24-byte header (length, sender id, virtual
// timestamp, wall-clock trace timestamp) followed by the payload.
// Connections are dialed lazily and cached, one per directed node pair.
//
// A frame costs one write and at most one read: Send assembles header
// and payload in the connection's reusable buffer and issues a single
// Write under that connection's lock, so sends to different peers never
// wait on each other; each accepted connection is read through one
// fixed-size buffer that small frames arrive whole in and back-to-back
// frames share.
//
// Buffer ownership: Send copies the payload onto the wire and then
// releases it to the wire pool — on every return path, since the
// sender gave up ownership per the Endpoint.Send contract; the read
// loop reads payloads into pooled buffers, so steady-state traffic
// allocates nothing on either side.
type TCPNetwork struct {
	addrs     []string
	listeners []net.Listener
	eps       []*tcpEndpoint

	mu     sync.Mutex
	closed bool
}

// NewTCPNetworkLocal starts an n-node TCP network entirely on the
// loopback interface, used by tests and the distributed-mode demo.
func NewTCPNetworkLocal(n int) (*TCPNetwork, error) {
	tn := &TCPNetwork{
		addrs:     make([]string, n),
		listeners: make([]net.Listener, n),
		eps:       make([]*tcpEndpoint, n),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tn.Close()
			return nil, err
		}
		tn.listeners[i] = l
		tn.addrs[i] = l.Addr().String()
	}
	for i := 0; i < n; i++ {
		ep := &tcpEndpoint{
			net:   tn,
			id:    i,
			inbox: make(chan Packet, 256),
			done:  make(chan struct{}),
			conns: make(map[int]*tcpConn),
		}
		tn.eps[i] = ep
		go ep.acceptLoop(tn.listeners[i])
	}
	return tn, nil
}

// Size returns the node count.
func (tn *TCPNetwork) Size() int { return len(tn.addrs) }

// Endpoint returns node's attachment.
func (tn *TCPNetwork) Endpoint(node int) Endpoint { return tn.eps[node] }

// Close shuts down listeners and connections.
func (tn *TCPNetwork) Close() error {
	tn.mu.Lock()
	if tn.closed {
		tn.mu.Unlock()
		return nil
	}
	tn.closed = true
	tn.mu.Unlock()
	for _, l := range tn.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, ep := range tn.eps {
		if ep != nil {
			ep.close()
		}
	}
	return nil
}

type tcpEndpoint struct {
	net *TCPNetwork
	id  int
	// inbox is never closed — concurrent readLoops may be mid-send.
	// done signals shutdown instead; Recv drains what is buffered and
	// then reports closure.
	inbox chan Packet
	done  chan struct{}

	// mu guards the connection tables and closed, nothing else: frame
	// writes run under their connection's own lock, so a peer that
	// stops reading stalls only the senders addressing it.
	mu     sync.Mutex
	conns  map[int]*tcpConn // outgoing, keyed by destination
	accept []net.Conn       // incoming
	closed bool
}

// tcpConn is one outgoing connection. mu serializes frame writes and
// guards buf, the buffer each frame is assembled in.
type tcpConn struct {
	c   net.Conn
	mu  sync.Mutex
	buf []byte
}

const (
	// tcpMetaSize is the per-frame metadata after the length prefix:
	// sender id (uint32), virtual timestamp (uint64), and wall-clock send
	// timestamp (uint64, zero when tracing is off) — the trace layer's
	// transit measurements survive the real network stack.
	tcpMetaSize = 20
	// tcpHeaderSize is the length prefix plus the metadata.
	tcpHeaderSize = 4 + tcpMetaSize
	// tcpReadBufSize sizes each accepted connection's read buffer. A
	// small frame arrives whole in one read and back-to-back frames
	// share it; a payload larger than the buffer is read straight into
	// its pooled buffer.
	tcpReadBufSize = 16 << 10
	// tcpMaxRetainedWriteBuf caps the assembly buffer a connection
	// keeps between writes, so one huge frame does not pin its size for
	// the connection's lifetime.
	tcpMaxRetainedWriteBuf = 64 << 10
)

// frameHeader is the fixed prefix of every TCP frame. size counts the
// bytes that follow the length prefix: tcpMetaSize plus the payload.
type frameHeader struct {
	size uint32
	from int
	ts   int64
	wall int64
}

// putFrameHeader encodes h into b[:tcpHeaderSize].
func putFrameHeader(b []byte, h frameHeader) {
	_ = b[tcpHeaderSize-1]
	binary.LittleEndian.PutUint32(b[0:], h.size)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.from))
	binary.LittleEndian.PutUint64(b[8:], uint64(h.ts))
	binary.LittleEndian.PutUint64(b[16:], uint64(h.wall))
}

// parseFrameHeader decodes b[:tcpHeaderSize]; it is the inverse of
// putFrameHeader and validates nothing.
func parseFrameHeader(b []byte) frameHeader {
	_ = b[tcpHeaderSize-1]
	return frameHeader{
		size: binary.LittleEndian.Uint32(b[0:]),
		from: int(int32(binary.LittleEndian.Uint32(b[4:]))),
		ts:   int64(binary.LittleEndian.Uint64(b[8:])),
		wall: int64(binary.LittleEndian.Uint64(b[16:])),
	}
}

func (e *tcpEndpoint) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accept = append(e.accept, c)
		e.mu.Unlock()
		go e.readLoop(c)
	}
}

// readLoop delivers the frames of one accepted connection to the inbox
// until the stream ends, breaks framing, or the endpoint closes.
func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, tcpReadBufSize)
	// Every connection opens with the wire preamble (magic + protocol
	// version, written by the dialer below): a peer speaking another
	// protocol or version is rejected from its first six bytes instead
	// of having its stream misparsed as frames.
	pre, err := br.Peek(wire.PreambleSize)
	if err != nil || wire.CheckPreamble(pre) != nil {
		return
	}
	br.Discard(wire.PreambleSize)
	for {
		// The header is parsed in place in the read buffer; only the
		// payload is copied out, into a pooled buffer, so recycling loses
		// no capacity to header prefixes.
		b, err := br.Peek(4)
		if err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(b)
		if n > wire.MaxFrameSize {
			return
		}
		if n < tcpMetaSize {
			// Runt frame: discard its bytes to stay in sync.
			if _, err := br.Discard(4 + int(n)); err != nil {
				return
			}
			continue
		}
		if b, err = br.Peek(tcpHeaderSize); err != nil {
			return
		}
		h := parseFrameHeader(b)
		br.Discard(tcpHeaderSize)
		payload := wire.GetBuf(int(n) - tcpMetaSize)
		if _, err := io.ReadFull(br, payload); err != nil {
			wire.PutBuf(payload)
			return
		}
		p := stampRecv(Packet{
			From:    h.from,
			TS:      h.ts,
			Wall:    h.wall,
			To:      e.id,
			Payload: payload,
		})
		select {
		case e.inbox <- p:
		case <-e.done:
			wire.PutBuf(payload)
			return
		}
	}
}

// Send copies the frame onto p.To's connection and recycles the
// payload — on every return path, since the sender gave up ownership
// whether or not the bytes left (Endpoint.Send contract).
func (e *tcpEndpoint) Send(p Packet) error {
	err := e.send(p)
	wire.PutBuf(p.Payload)
	return err
}

func (e *tcpEndpoint) send(p Packet) error {
	if p.To < 0 || p.To >= e.net.Size() {
		return fmt.Errorf("transport: no node %d", p.To)
	}
	if tcpMetaSize+len(p.Payload) > wire.MaxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", tcpMetaSize+len(p.Payload))
	}
	tc, err := e.conn(p.To)
	if err != nil {
		return err
	}
	if err := tc.writeFrame(e.id, p); err != nil {
		select {
		case <-e.done:
			// close shut the socket under the write.
			return ErrClosed
		default:
			return err
		}
	}
	return nil
}

// conn returns the cached connection to node to, dialing it on first
// use.
func (e *tcpEndpoint) conn(to int) (*tcpConn, error) {
	e.mu.Lock()
	tc, ok := e.conns[to]
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return tc, nil
	}
	c, err := net.Dial("tcp", e.net.addrs[to])
	if err != nil {
		return nil, err
	}
	// Stamp the fresh connection with the version preamble before any
	// frame. If we lose the caching race the duplicate dial is closed;
	// its receiver-side readLoop sees a valid preamble followed by EOF,
	// which is a clean no-traffic connection.
	pre := wire.Preamble()
	if _, err := c.Write(pre[:]); err != nil {
		c.Close()
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, ErrClosed
	}
	if prev, raced := e.conns[to]; raced {
		c.Close()
		return prev, nil
	}
	tc = &tcpConn{c: c}
	e.conns[to] = tc
	return tc, nil
}

// writeFrame assembles header and payload in the connection's buffer
// and hands the kernel the whole frame in one Write.
func (tc *tcpConn) writeFrame(from int, p Packet) error {
	n := tcpHeaderSize + len(p.Payload)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	b := slices.Grow(tc.buf[:0], n)[:n]
	if cap(b) <= tcpMaxRetainedWriteBuf {
		tc.buf = b
	}
	putFrameHeader(b, frameHeader{
		size: uint32(tcpMetaSize + len(p.Payload)),
		from: from,
		ts:   p.TS,
		wall: p.Wall,
	})
	copy(b[tcpHeaderSize:], p.Payload)
	_, err := tc.c.Write(b)
	return err
}

func (e *tcpEndpoint) Recv() (Packet, bool) {
	select {
	case p := <-e.inbox:
		return p, true
	case <-e.done:
		// Shutdown: hand out whatever is still buffered, then report
		// closure.
		select {
		case p := <-e.inbox:
			return p, true
		default:
			return Packet{}, false
		}
	}
}

func (e *tcpEndpoint) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	// done first, so a Send whose write the socket close below fails
	// (it may be blocked on a stalled peer) reports ErrClosed.
	close(e.done)
	for _, tc := range e.conns {
		tc.c.Close()
	}
	for _, c := range e.accept {
		c.Close()
	}
}
