package rmi

// negotiateWithPeerHello settles node local's link to peer as if the
// peer had sent the HELLO bytes hello: the path a HELLO read off a
// socket would take, which no registry of this process can make
// malformed. It has no effect on a link already negotiated.
func (c *Cluster) negotiateWithPeerHello(local, peer int, hello []byte) {
	n := c.nodes[local]
	l := &n.links[peer]
	l.once.Do(func() { n.negotiateLink(l, hello) })
}

// WithDedupCap bounds the per-node reply cache that absorbs
// retransmitted calls (default 4096 entries), so a test can watch
// eviction without sending thousands of calls.
func WithDedupCap(n int) Option {
	return func(o *clusterOpts) { o.dedupCap = n }
}
