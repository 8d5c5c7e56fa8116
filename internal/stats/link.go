package stats

// LinkStat describes one directed link in a cluster: how many calls it
// refused because the HELLO exchange found the peer running another
// program (calls From issued to To, and call frames From received from
// To), and how many malformed frames From received from To. Surfaced
// by rmi.Cluster.LinkStats and the obs cormi_link_* series on /metrics.
type LinkStat struct {
	From      int
	To        int
	Refused   int64 // calls refused on the link (plan mismatch)
	Malformed int64 // malformed frames From received from To
}
