package main

import (
	"strings"
	"testing"

	"cormi/internal/rmi"
	"cormi/internal/stats"
)

// TestSummaryLabelsWhereCallsWent: a level's line says TCP only for
// calls that crossed it; a one-node run's calls are all local.
func TestSummaryLabelsWhereCallsWent(t *testing.T) {
	for _, c := range []struct {
		remote, local int64
		want, not     string
	}{
		{remote: 5, want: " 5 RMIs over TCP  wire=", not: "local"},
		{local: 5, want: " 5 local RMIs  wire=", not: "TCP"},
		{remote: 3, local: 2, want: " 3 RMIs over TCP + 2 local  wire="},
	} {
		line := summary(rmi.LevelSite, stats.Snapshot{RemoteRPCs: c.remote, LocalRPCs: c.local})
		if !strings.Contains(line, c.want) || c.not != "" && strings.Contains(line, c.not) {
			t.Errorf("remote %d, local %d: %q, want %q and no %q", c.remote, c.local, line, c.want, c.not)
		}
	}
}
