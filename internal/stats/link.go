package stats

// LinkStat describes the negotiated state of one directed link in a
// cluster: which protocol version it runs at, how many classes the
// HELLO fingerprint exchange demoted to the class-level encoding, how
// many objects have actually taken the demoted path, and how many
// malformed frames From received from To. Surfaced by
// rmi.Cluster.LinkStats, the /metrics and /links endpoints, and the
// rmibench negotiation report.
type LinkStat struct {
	From           int    `json:"from"`
	To             int    `json:"to"`
	Version        int32  `json:"version"`         // negotiated wire protocol version
	PeerPlans      int32  `json:"peer_plans"`      // peer's advertised plan generation
	DemotedClasses int    `json:"demoted_classes"` // classes negotiated down to class-level encoding
	Fallbacks      int64  `json:"fallbacks"`       // objects written through the demoted path
	Caps           uint32 `json:"caps"`            // negotiated capability bits (wire.Cap*)
	Malformed      int64  `json:"malformed"`       // malformed frames From received from To
}
