package main

import (
	"fmt"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// The ladder replays, from outside, the layers one RMI crosses — for
// the same values, plans and serializer configuration the real call
// used — and times each with its own span:
//
//	serial.write  wire.seal  transport.hop  wire.unseal  serial.read
//
// once for the call frame and once for the reply frame. It is an
// estimate: what the real call spends beyond these (pending table,
// receive loop, goroutine per call, locks) is rmi.self_us, and
// driver.ladder_coverage says how much of the call the replay explains.

// Frame layout constants of internal/rmi (callsite.go, dispatch.go),
// repeated here because the runtime does not export them: the replay
// must seal and ship frames of the size the real call does.
const (
	callHeaderLen  = 1 + 1 + 4 + 8 + 8 + 4 // tag flags site obj seq nargs
	replyHeaderLen = 1 + 8 + 1             // tag seq flag
	replyAck       = 0
	replyValues    = 1
)

// ladderCall is one remote call of an operation.
type ladderCall struct {
	note               string
	args, rets         []model.Value
	argPlans, retPlans []*serial.Plan
	cfg                serial.Config
	// ack: a site-mode call whose result the caller ignores is answered
	// with a bare acknowledgment (§3.1).
	ack bool

	argCache, retCache serial.ReuseCache
	replyLen           int
}

type ladder struct {
	reg   *model.Registry
	net   transport.Network
	calls []*ladderCall
	// ctr absorbs the replay's serializer events so the cluster's own
	// counters keep counting real calls only.
	ctr  stats.Counters
	done chan struct{}
}

// newLadder starts the ping-pong responder on endpoint 1 of net (which
// the ladder owns and closes) and sizes each call's reply frame with
// one dry run, which also warms the reuse caches.
func newLadder(reg *model.Registry, net transport.Network, calls ...*ladderCall) (*ladder, error) {
	l := &ladder{reg: reg, net: net, calls: calls, done: make(chan struct{})}
	go l.respond()
	for _, c := range calls {
		frame, err := l.replyFrame(c, nil, 0, 0)
		if err != nil {
			l.close()
			return nil, err
		}
		c.replyLen = len(frame)
		wire.PutBuf(frame)
	}
	if err := l.replay(0, nil); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// respond answers every frame with one of the size the sender asked for
// in the packet's virtual-timestamp field, which the replay does not
// otherwise use and both transports carry.
func (l *ladder) respond() {
	defer close(l.done)
	ep := l.net.Endpoint(1)
	for {
		p, ok := ep.Recv()
		if !ok {
			return
		}
		wire.PutBuf(p.Payload)
		if ep.Send(transport.Packet{To: 0, Payload: wire.GetBuf(int(p.TS))}) != nil {
			return
		}
	}
}

func (l *ladder) close() {
	l.net.Close()
	<-l.done
}

// refsReusable mirrors the runtime's rule for recycling the value slice
// itself: every value is a reference carrying the §3.3 proof.
func refsReusable(plans []*serial.Plan) bool {
	for _, p := range plans {
		if p.Kind != model.FRef || !p.Reusable {
			return false
		}
	}
	return true
}

func (l *ladder) callFrame(c *ladderCall, sp *spanBuf, op uint64, root int) ([]byte, error) {
	m := wire.Get()
	m.AppendByte(0)
	m.AppendByte(0)
	m.AppendInt32(0)
	m.AppendInt64(0)
	m.AppendInt64(int64(op))
	m.AppendInt32(int32(len(c.args)))
	t0 := now()
	_, err := serial.WriteValues(m, c.args, c.argPlans, c.cfg, &l.ctr)
	t1 := now()
	if err != nil {
		m.Release()
		return nil, fmt.Errorf("replay %s: write args: %w", c.note, err)
	}
	m.SealFrame()
	t2 := now()
	sp.add("serial.write", c.note+".call", op, root, t0, t1)
	sp.add("wire.seal", c.note+".call", op, root, t1, t2)
	return m.Detach(), nil
}

func (l *ladder) replyFrame(c *ladderCall, sp *spanBuf, op uint64, root int) ([]byte, error) {
	m := wire.Get()
	m.AppendByte(1)
	m.AppendInt64(int64(op))
	t0 := now()
	t1 := t0
	if c.ack {
		m.AppendByte(replyAck)
	} else {
		m.AppendByte(replyValues)
		m.AppendInt32(int32(len(c.rets)))
		t0 = now()
		_, err := serial.WriteValues(m, c.rets, c.retPlans, c.cfg, &l.ctr)
		t1 = now()
		if err != nil {
			m.Release()
			return nil, fmt.Errorf("replay %s: write returns: %w", c.note, err)
		}
		sp.add("serial.write", c.note+".reply", op, root, t0, t1)
	}
	m.SealFrame()
	sp.add("wire.seal", c.note+".reply", op, root, t1, now())
	return m.Detach(), nil
}

// readBack unseals a frame, skips its header and deserializes n values
// the way the runtime does: donors from the reuse cache, graphs put
// back afterwards.
func (l *ladder) readBack(frame []byte, skip, n int, plans []*serial.Plan, c *ladderCall, cache *serial.ReuseCache, note string, sp *spanBuf, op uint64, root int) error {
	defer wire.PutBuf(frame)
	t0 := now()
	payload, err := wire.Unseal(frame)
	t1 := now()
	if err != nil {
		return fmt.Errorf("replay %s: %w", note, err)
	}
	sp.add("wire.unseal", note, op, root, t0, t1)
	if n == 0 {
		return nil
	}
	rd := wire.GetReader(payload[skip:])
	defer rd.ReleaseReader()
	t2 := now()
	var cached []*model.Object
	var scratch []model.Value
	recycle := c.cfg.Mode == serial.ModeSite && c.cfg.Reuse && refsReusable(plans)
	if c.cfg.Reuse {
		cached, scratch = cache.Take()
		if !recycle {
			scratch = nil
		}
	}
	vals, roots, _, err := serial.ReadValuesScratch(rd, l.reg, n, plans, c.cfg, cached, scratch, &l.ctr)
	if err != nil {
		return fmt.Errorf("replay %s: read: %w", note, err)
	}
	if c.cfg.Reuse {
		if !recycle {
			vals = nil
		}
		cache.Put(roots, vals)
	}
	sp.add("serial.read", note, op, root, t2, now())
	return nil
}

// replay runs the ladder once for every call of operation op, as
// children of a root span "replay".
func (l *ladder) replay(op uint64, sp *spanBuf) error {
	root := sp.begin("replay", op, noParent, now())
	defer func() { sp.end(root, now()) }()
	ep := l.net.Endpoint(0)
	for _, c := range l.calls {
		call, err := l.callFrame(c, sp, op, root)
		if err != nil {
			return err
		}
		reply, err := l.replyFrame(c, sp, op, root)
		if err != nil {
			wire.PutBuf(call)
			return err
		}
		// Ping-pong at the real frame sizes, each direction charged half.
		// The first round trip is untimed: whether a goroutine wake-up
		// crosses threads depends on what ran just before (on the sizing
		// host a channel round trip is 0.9 us after a busy spell and 9 us
		// after 30 us of codec work), and that penalty belongs to whoever
		// schedules the goroutines — rmi.self_us — not to the transport.
		var t0, t1 int64
		for round := 0; round < 2; round++ {
			ping := wire.GetBuf(len(call))
			t0 = now()
			if err := ep.Send(transport.Packet{To: 1, TS: int64(c.replyLen), Payload: ping}); err != nil {
				wire.PutBuf(call)
				wire.PutBuf(reply)
				return fmt.Errorf("replay %s: send: %w", c.note, err)
			}
			pong, ok := ep.Recv()
			t1 = now()
			if !ok {
				wire.PutBuf(call)
				wire.PutBuf(reply)
				return fmt.Errorf("replay %s: network closed", c.note)
			}
			wire.PutBuf(pong.Payload)
		}
		mid := t0 + (t1-t0)/2
		sp.add("transport.hop", c.note+".call", op, root, t0, mid)
		sp.add("transport.hop", c.note+".reply", op, root, mid, t1)

		if err := l.readBack(call, callHeaderLen, len(c.args), c.argPlans, c, &c.argCache, c.note+".call", sp, op, root); err != nil {
			wire.PutBuf(reply)
			return err
		}
		nrets, skip := len(c.rets), replyHeaderLen+4
		if c.ack {
			nrets = 0
		}
		if err := l.readBack(reply, skip, nrets, c.retPlans, c, &c.retCache, c.note+".reply", sp, op, root); err != nil {
			return err
		}
	}
	return nil
}
