package rmi

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// Link-level version negotiation.
//
// Every directed link performs a HELLO fingerprint exchange before its
// first payload frame: each side states its wire protocol version, its
// plan generation and one fingerprint per class (serial.ClassFingerprint
// of the layout its compiled plans assume). The paper compiles one
// whole program for every node, so the two tables agree by
// construction. A peer whose plan generation or any fingerprint
// differs runs a different program: the link is refused for its life.
// Every call over it fails with ErrPlanMismatch before anything is
// marshalled, and a call frame that arrives over it is dropped
// undecoded; both are counted on the link.
//
// The exchange is lazy (first use of the link) because applications
// register classes and compile sites after the cluster is built, and
// it runs over the control plane rather than the lossy data plane:
// in-process the two HELLOs are handed across directly, while the TCP
// transport additionally stamps each connection with a version
// preamble (wire.Preamble). The HELLO bytes still round-trip through
// wire.EncodeHello/DecodeHello so the hardened handshake decoder is on
// the real path; an undecodable HELLO refuses the link too.

// skewSalt perturbs fingerprints under WithPlanSkew, simulating a peer
// whose plans were compiled from a different program.
const skewSalt = 0x9e3779b97f4a7c15

// nodeLink is one directed link's negotiated wire state, initialized
// at most once on first use.
type nodeLink struct {
	once sync.Once
	// refused is set when the HELLO exchange found the peer running
	// other plans, or could not decode a HELLO; immutable after once.
	refused bool
	// version is the link's negotiated protocol version,
	// min(local, remote); peerPlans is the peer's plan generation.
	version   int32
	peerPlans int32
	// caps is the link's negotiated capability set: the intersection of
	// both HELLOs' advertised bits (wire.Cap*). An optional feature —
	// today trace-context propagation — is used on this link only when
	// its bit survived negotiation.
	caps uint32
	// refusals counts the calls this node refused on the link: the ones
	// it would have issued to the peer and the call frames it dropped
	// from it. malformed counts the malformed frames this node received
	// from the peer; malformedDumped latches the one flight-recorder
	// dump the link records on its first.
	refusals        atomic.Int64
	malformed       atomic.Int64
	malformedDumped atomic.Bool
	ready           atomic.Bool
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
		n.cluster.negotiateLink(n.ID, peer, l)
		l.ready.Store(true)
	})
	return l
}

// helloBytes builds the encoded HELLO frame node would send: protocol
// version, plan generation, and the fingerprint of every registered
// class, salted under WithPlanSkew.
func (c *Cluster) helloBytes(node int) []byte {
	c.fpOnce.Do(func() { c.fps = serial.RegistryFingerprints(c.Registry) })
	fps := c.fps
	h := &wire.Hello{Version: wire.ProtocolVersion, PlanVersion: 1, Node: int32(node), Caps: wire.LocalCaps &^ c.capsMask[node]}
	var salt uint64
	if c.skew[node] {
		h.PlanVersion, salt = 2, skewSalt
	}
	names := make([]string, 0, len(fps))
	for name := range fps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Entries = append(h.Entries, wire.HelloEntry{Name: name, FP: fps[name] ^ salt})
	}
	return wire.EncodeHello(h)
}

// negotiateLink performs the HELLO exchange for the link local→peer
// and fills l. Both HELLOs pass through the hardened DecodeHello; a
// HELLO that fails to decode refuses the link, as does a peer whose
// plans differ.
func (c *Cluster) negotiateLink(local, peer int, l *nodeLink) {
	localHello, lerr := wire.DecodeHello(c.helloBytes(local))
	peerHello, perr := wire.DecodeHello(c.helloBytes(peer))
	if lerr != nil || perr != nil {
		// An unverifiable peer gets no optional features either: caps
		// stay zero.
		l.version, l.refused = wire.ProtocolVersion, true
		return
	}
	l.version = min(localHello.Version, peerHello.Version)
	l.peerPlans = peerHello.PlanVersion
	l.caps = localHello.Caps & peerHello.Caps
	l.refused = !samePlans(localHello, peerHello)
}

// samePlans reports whether two HELLOs advertise one program: the same
// plan generation and the same fingerprint table, entry for entry (an
// honest peer sorts it by class name).
func samePlans(a, b *wire.Hello) bool {
	return a.PlanVersion == b.PlanVersion && slices.Equal(a.Entries, b.Entries)
}

// noteMalformed records a malformed frame received from peer: the
// cluster-wide counter, the link's own count (so /links names the peer
// that sent it), and a one-shot flight-recorder dump per link so the
// first hostile frame leaves forensics without letting an attacker
// flood the recorder. A From outside the cluster counts cluster-wide
// only.
func (n *Node) noteMalformed(from int) {
	c := n.cluster
	c.Counters.MalformedFrames.Add(1)
	l := n.linkTo(from)
	if l == nil {
		return
	}
	l.malformed.Add(1)
	if l.malformedDumped.CompareAndSwap(false, true) {
		n.tracer.DumpFailure("malformed-frame")
	}
}

// LinkStats snapshots every negotiated link in the cluster (links that
// have never carried traffic are omitted). Surfaced on /links.
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
				Version:   l.version,
				PeerPlans: l.peerPlans,
				Caps:      l.caps,
				Refused:   l.refusals.Load(),
				Malformed: l.malformed.Load(),
			})
		}
	}
	return out
}
