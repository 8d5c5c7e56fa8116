package stats

// LinkStat describes the negotiated state of one directed link in a
// cluster: which protocol version it runs at, how many calls it refused
// because the HELLO fingerprint exchange found the peer running other
// plans (calls From issued to To, and call frames From received from
// To), and how many malformed frames From received from To. Surfaced by
// rmi.Cluster.LinkStats and the /metrics and /links endpoints.
type LinkStat struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	Version   int32  `json:"version"`    // negotiated wire protocol version
	PeerPlans int32  `json:"peer_plans"` // peer's advertised plan generation
	Caps      uint32 `json:"caps"`       // negotiated capability bits (wire.Cap*)
	Refused   int64  `json:"refused"`    // calls refused on the link (plan mismatch)
	Malformed int64  `json:"malformed"`  // malformed frames From received from To
}
