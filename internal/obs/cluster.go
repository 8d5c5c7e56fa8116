package obs

// Cluster-wide tail-latency aggregation (DESIGN.md §14).
//
// Every obs server exposes its node's attribution state at /snapshot —
// a versioned, self-contained document whose log2 histograms merge
// exactly. /cluster is the fold: it pulls peer snapshots (the
// configured Options.Peers, or a ?peers=a,b,c override), merges them
// with trace.MergeAttributions, and serves the derived per-site
// quantiles and top blame. Any node can aggregate; there is no
// coordinator role, only the pull.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"cormi/internal/trace"
)

// SnapshotVersion is the /snapshot and /cluster document version. A
// collector must reject snapshots with a different version rather than
// merge incompatible histograms. Version 2: blame is derived from the
// phase histograms; a site carries no blame table, slow-call threshold
// or exemplar count.
const SnapshotVersion = 2

// NodeSnapshot is one node's attribution state: the /snapshot wire
// document.
type NodeSnapshot struct {
	Version        int                     `json:"version"`
	Node           string                  `json:"node"`
	CapturedWallNS int64                   `json:"captured_wall_ns"`
	Sites          []trace.SiteAttribution `json:"sites"`
}

// ClusterSite is one site's cluster-wide row: merged call count,
// latency quantiles from the merged histogram, and the dominant phase
// with its share. This is what rmitop renders.
type ClusterSite struct {
	Site          string  `json:"site"`
	Calls         uint64  `json:"calls"`
	MeanNS        float64 `json:"mean_ns"`
	P50NS         int64   `json:"p50_ns"`
	P95NS         int64   `json:"p95_ns"`
	P99NS         int64   `json:"p99_ns"`
	TopBlame      string  `json:"top_blame,omitempty"`
	TopBlameShare float64 `json:"top_blame_share,omitempty"`
}

// ClusterView is the /cluster document: the merged view over the local
// node and every reachable peer. Unreachable or version-skewed peers
// are reported in Errors and excluded from the merge rather than
// failing the whole view.
type ClusterView struct {
	Version        int           `json:"version"`
	CapturedWallNS int64         `json:"captured_wall_ns"`
	Nodes          []string      `json:"nodes"`
	Errors         []string      `json:"errors,omitempty"`
	Sites          []ClusterSite `json:"sites"`
}

// localSnapshot builds this node's /snapshot document. Nil-tracer safe:
// a metrics-only node contributes its name and no sites.
func localSnapshot(opts Options) NodeSnapshot {
	node := opts.NodeName
	if node == "" {
		node = "local"
	}
	sites := opts.Tracer.Attribution()
	if sites == nil {
		sites = []trace.SiteAttribution{}
	}
	return NodeSnapshot{
		Version:        SnapshotVersion,
		Node:           node,
		CapturedWallNS: trace.Now(),
		Sites:          sites,
	}
}

// versioned is an obs document that states the protocol version it
// was written at; Get refuses one written at another.
type versioned interface{ version() (got, want int) }

func (d *NodeSnapshot) version() (int, int) { return d.Version, SnapshotVersion }
func (d *ClusterView) version() (int, int)  { return d.Version, SnapshotVersion }

// Get fetches one obs document of type T: base is "host:port" or a
// full URL, path the endpoint with its query. A status other than 200,
// a body that does not decode and — for the versioned documents — a
// version other than this build's are errors, so a collector never
// merges histograms or spans whose meaning may have changed.
func Get[T any](client *http.Client, base, path string) (T, error) {
	var doc T
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + path
	resp, err := client.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	if v, ok := any(&doc).(versioned); ok {
		if got, want := v.version(); got != want {
			return doc, fmt.Errorf("GET %s: document version %d, want %d", url, got, want)
		}
	}
	return doc, nil
}

// peerFetchLimit bounds the concurrent peer fetches one aggregation
// request fans out (both /cluster and /traces/<id> merges): enough to
// hide per-peer latency on realistic cluster sizes, bounded so a
// request listing hundreds of peers cannot stampede the network.
const peerFetchLimit = 8

// pullPeers fetches path from every peer concurrently, at most
// peerFetchLimit in flight — one slow or dead peer costs its own
// timeout, not the sum of everyone's — and reports in request order:
// each reachable peer's document beside the name it goes by (what node
// reads from the document, or the address it was listed under), and
// one error line for each peer that is unreachable or version-skewed.
func pullPeers[T any](peers []string, path string, node func(*T) string) (docs []T, names, errs []string) {
	client := &http.Client{Timeout: 2 * time.Second}
	got := make([]T, len(peers))
	failed := make([]error, len(peers))
	sem := make(chan struct{}, peerFetchLimit)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p string) {
			defer wg.Done()
			defer func() { <-sem }()
			got[i], failed[i] = Get[T](client, p, path)
		}(i, p)
	}
	wg.Wait()
	for i, p := range peers {
		if failed[i] != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", p, failed[i]))
			continue
		}
		name := node(&got[i])
		if name == "" || name == "local" {
			name = p
		}
		docs, names = append(docs, got[i]), append(names, name)
	}
	return docs, names, errs
}

// buildClusterView merges the local snapshot with every peer's. Peers
// must not include the serving node itself (its state is the local
// contribution; listing it would double-count). Nodes and errors
// appear in the order the peers were listed.
func buildClusterView(opts Options, peers []string) ClusterView {
	local := localSnapshot(opts)
	snaps, names, errs := pullPeers(peers, "/snapshot", func(s *NodeSnapshot) string { return s.Node })
	groups := [][]trace.SiteAttribution{local.Sites}
	for _, s := range snaps {
		groups = append(groups, s.Sites)
	}
	return ClusterView{
		Version:        SnapshotVersion,
		CapturedWallNS: local.CapturedWallNS,
		Nodes:          append([]string{local.Node}, names...),
		Errors:         errs,
		Sites:          clusterSites(trace.MergeAttributions(groups...)),
	}
}

// clusterSites derives the rendered per-site rows from a merged
// attribution snapshot: quantiles interpolate within the merged log2
// buckets, and TopBlame picks the dominant phase by the merged phase
// histograms' sums.
func clusterSites(merged []trace.SiteAttribution) []ClusterSite {
	out := make([]ClusterSite, 0, len(merged))
	for i := range merged {
		sa := &merged[i]
		cs := ClusterSite{Site: sa.Site, Calls: sa.Calls}
		if sa.Total.Total > 0 {
			cs.MeanNS = float64(sa.Total.Sum) / float64(sa.Total.Total)
			cs.P50NS = int64(sa.Total.Quantile(0.50))
			cs.P95NS = int64(sa.Total.Quantile(0.95))
			cs.P99NS = int64(sa.Total.Quantile(0.99))
		}
		cs.TopBlame, cs.TopBlameShare = sa.TopBlame()
		out = append(out, cs)
	}
	return out
}

// splitPeers parses a ?peers=a,b,c override.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
