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

// TestMergeLinksSumsCounts: /links merges the per-level clusters' rows
// for one direction by summing what each cluster counted, so a
// malformed frame or refused call an earlier level saw stays visible.
func TestMergeLinksSumsCounts(t *testing.T) {
	first := []stats.LinkStat{
		{From: 0, To: 1, Refused: 2, Malformed: 3},
		{From: 1, To: 0, Malformed: 1},
	}
	second := []stats.LinkStat{
		{From: 0, To: 1, Refused: 5},
		{From: 1, To: 0},
	}
	got := mergeLinks([][]stats.LinkStat{first, second})
	want := []stats.LinkStat{
		{From: 0, To: 1, Refused: 7, Malformed: 3},
		{From: 1, To: 0, Malformed: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d links, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("link %d->%d = %+v, want %+v", want[i].From, want[i].To, got[i], want[i])
		}
	}
}
