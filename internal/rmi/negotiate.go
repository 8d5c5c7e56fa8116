package rmi

import (
	"sync"
	"sync/atomic"

	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// Link-level program check.
//
// Every directed link performs a HELLO exchange before its first
// payload frame: each side states one digest of its registry
// (serial.RegistryDigest: every class name with the fingerprint of the
// layout its compiled plans assume). The paper compiles one whole
// program for every node, so the digests agree by construction. A
// peer whose digest differs runs a different program: the link is
// refused for its life. Every call over it fails with ErrPlanMismatch
// before anything is marshalled, and a call frame that arrives over it
// is dropped undecoded; both are counted on the link.
//
// The exchange is lazy (first use of the link) because applications
// register classes and compile sites after the cluster is built, and
// it runs over the control plane rather than the lossy data plane:
// in-process the two HELLOs are handed across directly, while the TCP
// transport additionally stamps each connection with a version
// preamble (wire.Preamble). The HELLO bytes still round-trip through
// wire.EncodeHello/DecodeHello so the hardened handshake decoder is on
// the real path; an undecodable HELLO refuses the link too.

// skewSalt perturbs the digest under WithPlanSkew, simulating a peer
// whose plans were compiled from a different program.
const skewSalt = 0x9e3779b97f4a7c15

// nodeLink is one directed link's negotiated wire state, initialized
// at most once on first use.
type nodeLink struct {
	once sync.Once
	// refused is set when the HELLO exchange found the peer running
	// other plans, or could not decode a HELLO; immutable after once.
	refused bool
	// refusals counts the calls this node refused on the link: the ones
	// it would have issued to the peer and the call frames it dropped
	// from it. malformed counts the malformed frames this node received
	// from the peer.
	refusals  atomic.Int64
	malformed atomic.Int64
	ready     atomic.Bool
}

// linkTo returns the negotiated link state for the peer, performing
// the HELLO exchange on first use. After initialization the call is a
// bounds check plus sync.Once fast path. Out-of-range peers (hostile
// From fields) return nil.
func (n *Node) linkTo(peer int) *nodeLink {
	if peer < 0 || peer >= len(n.links) {
		return nil
	}
	l := &n.links[peer]
	l.once.Do(func() {
		n.negotiateLink(l, n.cluster.hello(peer))
	})
	return l
}

// hello builds the HELLO frame node would send: the registry digest,
// salted under WithPlanSkew.
func (c *Cluster) hello(node int) []byte {
	c.fpOnce.Do(func() { c.digest = serial.RegistryDigest(c.Registry) })
	d := c.digest
	if c.skew[node] {
		d ^= skewSalt
	}
	return wire.EncodeHello(d)
}

// negotiateLink settles l, this node's link to the peer that sent
// peerHello. Both HELLOs pass through the hardened DecodeHello; the
// link is refused when either does not decode or the two digests
// differ.
func (n *Node) negotiateLink(l *nodeLink, peerHello []byte) {
	ld, lerr := wire.DecodeHello(n.cluster.hello(n.ID))
	pd, perr := wire.DecodeHello(peerHello)
	l.refused = lerr != nil || perr != nil || ld != pd
	l.ready.Store(true)
}

// noteMalformed records a malformed frame received from peer: the
// cluster-wide counter, the link's own count (so its cormi_link_* series
// names the peer
// that sent it), and a flight-recorder dump, which the tracer writes
// at most once, so the first hostile frame leaves forensics without
// letting an attacker flood the recorder. A From outside the cluster
// counts cluster-wide only.
func (n *Node) noteMalformed(from int) {
	c := n.cluster
	c.Counters.MalformedFrames.Add(1)
	l := n.linkTo(from)
	if l == nil {
		return
	}
	l.malformed.Add(1)
	n.tracer.DumpFailure("malformed-frame")
}

// LinkStats snapshots every negotiated link in the cluster (links that
// have never carried traffic are omitted), read by the obs cormi_link_*
// series on /metrics.
func (c *Cluster) LinkStats() []stats.LinkStat {
	var out []stats.LinkStat
	for _, n := range c.nodes {
		for peer := range n.links {
			l := &n.links[peer]
			if !l.ready.Load() {
				continue
			}
			out = append(out, stats.LinkStat{
				From:      n.ID,
				To:        peer,
				Refused:   l.refusals.Load(),
				Malformed: l.malformed.Load(),
			})
		}
	}
	return out
}
