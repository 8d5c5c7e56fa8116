// Command rmitop is a live terminal view of cluster-wide tail-latency
// attribution: it polls one obs server's /cluster endpoint (which
// merges every peer's /snapshot) and renders a top-style table of
// sites × {call rate, p50, p99, dominant blame phase, exemplars}.
//
// Usage:
//
//	rmitop -cluster 127.0.0.1:9090                  # poll every 2s
//	rmitop -cluster 127.0.0.1:9090 -peers a:1,b:2   # override the
//	                       # aggregator's configured peer set
//	rmitop -cluster 127.0.0.1:9090 -once            # one frame, exit
//	                       # (scripting / smoke tests)
//
// The rate column derives from call-count deltas between polls, so the
// first frame shows "-". Slow-call exemplars are counted per site; two
// drill-down modes follow one into its distributed trace:
//
//	rmitop -cluster 127.0.0.1:9090 -slow Attrib.echo.1   # worst slow
//	                       # exemplars for the site, then the full
//	                       # cross-node call tree of the worst sampled one
//	rmitop -cluster 127.0.0.1:9090 -trace 0x1f3a…        # one trace's
//	                       # reconstructed tree (/traces/<id>?peers=…)
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"cormi/internal/obs"
	"cormi/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus the process exit, so tests can drive the CLI
// against an httptest server. Exit codes: 0 clean, 1 poll failure (in
// -once / -frames mode), 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmitop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cluster := fs.String("cluster", "127.0.0.1:9090", "aggregating node's obs address (host:port or URL)")
	peers := fs.String("peers", "", "comma-separated peer obs addresses (overrides the node's configured set)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "render one frame and exit")
	frames := fs.Int("frames", 0, "frames to render before exiting (0 = until interrupted)")
	traceID := fs.String("trace", "", "drill into one trace: render its reconstructed cross-node call tree and exit")
	slowSite := fs.String("slow", "", "drill into a site: list its worst slow-call exemplars, then the trace tree of the worst sampled one")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base := *cluster
	if *traceID != "" || *slowSite != "" {
		client := &http.Client{Timeout: 5 * time.Second}
		return drill(client, base, *peers, *slowSite, *traceID, stdout, stderr)
	}

	target := "/cluster"
	if *peers != "" {
		target += "?peers=" + url.QueryEscape(*peers)
	}

	limit := *frames
	if *once {
		limit = 1
	}
	client := &http.Client{Timeout: 5 * time.Second}
	prevCalls := map[string]uint64{}
	var prevAt time.Time
	for i := 0; limit == 0 || i < limit; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cv, err := obs.Get[obs.ClusterView](client, base, target)
		if err != nil {
			fmt.Fprintf(stderr, "rmitop: %v\n", err)
			if limit > 0 {
				return 1
			}
			continue
		}
		if limit == 0 {
			// Interactive top-style refresh: clear and home.
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		}
		now := time.Now()
		render(stdout, &cv, prevCalls, now.Sub(prevAt), !prevAt.IsZero())
		next := make(map[string]uint64, len(cv.Sites))
		for _, s := range cv.Sites {
			next[s.Site] = s.Calls
		}
		prevCalls, prevAt = next, now
	}
	return 0
}

// render writes one frame: the node roster, any peer errors, and the
// per-site attribution table.
func render(w io.Writer, cv *obs.ClusterView, prevCalls map[string]uint64, dt time.Duration, haveRate bool) {
	fmt.Fprintf(w, "rmitop — %d node(s): %s\n", len(cv.Nodes), strings.Join(cv.Nodes, ", "))
	for _, e := range cv.Errors {
		fmt.Fprintf(w, "  peer error: %s\n", e)
	}
	fmt.Fprintf(w, "%-28s %10s %9s %10s %10s %-14s %6s %9s\n",
		"site", "calls", "rate/s", "p50", "p99", "top_blame", "share", "exemplars")
	for _, s := range cv.Sites {
		rate := "-"
		if haveRate && dt > 0 {
			if prev, ok := prevCalls[s.Site]; ok {
				rate = fmt.Sprintf("%.1f", float64(s.Calls-prev)/dt.Seconds())
			}
		}
		blame := s.TopBlame
		if blame == "" {
			blame = "-"
		}
		fmt.Fprintf(w, "%-28s %10d %9s %10s %10s %-14s %5.0f%% %9d\n",
			s.Site, s.Calls, rate, fmtNS(s.P50NS), fmtNS(s.P99NS),
			blame, 100*s.TopBlameShare, s.Exemplars)
	}
}

// drill renders the one-shot drill-down views: the slow-exemplar list
// for a site (and the tree of its worst sampled exemplar), or the tree
// of an explicitly named trace.
func drill(client *http.Client, base, peers, slowSite, traceID string, stdout, stderr io.Writer) int {
	id := traceID
	if slowSite != "" {
		exs, err := obs.Get[[]trace.Exemplar](client, base, "/slow")
		if err != nil {
			fmt.Fprintf(stderr, "rmitop: %v\n", err)
			return 1
		}
		var rows []trace.Exemplar
		for _, ex := range exs {
			if ex.Site == slowSite {
				rows = append(rows, ex)
			}
		}
		if len(rows) == 0 {
			fmt.Fprintf(stdout, "no slow-call exemplars for %s\n", slowSite)
			return 0
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].TotalNS > rows[j].TotalNS })
		fmt.Fprintf(stdout, "%-28s %10s %10s %-14s %6s %18s\n",
			"site", "total", "threshold", "blame", "retry", "trace_id")
		for _, ex := range rows {
			tid := "-"
			if ex.TraceID != 0 {
				tid = fmt.Sprintf("0x%x", ex.TraceID)
			}
			fmt.Fprintf(stdout, "%-28s %10s %10s %-14s %6d %18s\n",
				ex.Site, fmtNS(ex.TotalNS), fmtNS(ex.ThresholdNS), ex.Blame, ex.Retries, tid)
		}
		// Drill into the worst exemplar that was head-sampled.
		for _, ex := range rows {
			if ex.TraceID != 0 {
				id = fmt.Sprintf("%d", ex.TraceID)
				break
			}
		}
		if id == "" {
			fmt.Fprintf(stdout, "\nno exemplar was head-sampled; no trace to drill into\n")
			return 0
		}
		fmt.Fprintln(stdout)
	}
	target := "/traces/" + url.PathEscape(id) + "?merge=1"
	if peers != "" {
		target += "&peers=" + url.QueryEscape(peers)
	}
	view, err := obs.Get[obs.TraceView](client, base, target)
	if err != nil {
		fmt.Fprintf(stderr, "rmitop: %v\n", err)
		return 1
	}
	renderTree(stdout, &view)
	return 0
}

// renderTree writes one reconstructed trace as an indented call tree
// with the per-hop breakdown and the critical-path summary.
func renderTree(w io.Writer, view *obs.TraceView) {
	t := view.Tree
	if t == nil || len(t.Spans) == 0 {
		fmt.Fprintln(w, "trace not retained by any reachable node")
		return
	}
	fmt.Fprintf(w, "trace 0x%x — %d span(s) across %s\n",
		t.TraceID, len(t.Spans), strings.Join(view.Nodes, ", "))
	for _, e := range view.Errors {
		fmt.Fprintf(w, "  peer error: %s\n", e)
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := &t.Spans[i]
		mark := " "
		if s.Critical {
			mark = "*"
		}
		flags := ""
		if s.Orphan {
			flags += " orphan"
		}
		if s.Err != "" {
			flags += " err=" + s.Err
		}
		fmt.Fprintf(w, "%s %s%-*s %s [%s] hop=%d @%s +%s dur=%s%s\n",
			mark, strings.Repeat("  ", depth), 28-2*depth, s.Site,
			s.Method, s.Kind, s.Hop, s.Node, fmtNS(s.AlignedStart()-t.Spans[t.Roots[0]].AlignedStart()), fmtNS(s.End-s.Start), flags)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	fmt.Fprintf(w, "end-to-end %s, critical path %s (%d hop(s)",
		fmtNS(t.EndToEndNS), fmtNS(t.CriticalPathNS), t.MaxHop)
	if t.Orphans > 0 || t.Duplicates > 0 {
		fmt.Fprintf(w, ", %d orphan(s), %d duplicate(s)", t.Orphans, t.Duplicates)
	}
	fmt.Fprintln(w, "); * marks the critical path")
}

// fmtNS renders nanoseconds at human scale.
func fmtNS(ns int64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
