// Package webserver implements the parallel webserver of §5.4
// (Tables 7/8): a master accepts page requests and forwards each to a
// page server chosen by the URL's hash — the single RMI the paper
// says communication centers around:
//
//	page = server[url.hashCode()].get_page(url)
//
// Page servers run on every machine (including the master's), so
// roughly half the lookups are node-local RPCs and half remote,
// matching Table 8's local/remote split. The compiler proves the
// returned page graph cycle-free and reusable, so with all
// optimizations no objects are allocated after the first page has been
// retrieved.
package webserver

import (
	"fmt"
	"hash/fnv"
	"strings"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// Src is the MiniJP communication sketch.
const Src = `
class Header {
	String contentType;
	int status;
}
class Page {
	Header hdr;
	String body;
}
remote class PageServer {
	Page[] table;
	void init(int n) {
		this.table = new Page[n];
		for (int i = 0; i < n; i = i + 1) {
			Page p = new Page();
			p.hdr = new Header();
			p.hdr.contentType = "text/html";
			p.hdr.status = 200;
			p.body = "page";
			this.table[i] = p;
		}
	}
	Page get_page(String url) {
		int h = url.hashCode();
		int n = this.table.length;
		return this.table[h % n];
	}
}
class Main {
	static void handle(PageServer s, String url) {
		Page page = s.get_page(url);
		int len = page.body.length();
		int use = len + 1;
	}
	static void main() {
		PageServer s = new PageServer();
		s.init(100);
		Main.handle(s, "/index.html");
	}
}
`

// lookupNS is the virtual cost of the slave's hash-table lookup.
const lookupNS = 900

// Outcome is the benchmark result plus correctness witnesses.
type Outcome struct {
	appkit.RunResult
	// MicrosPerPage is the virtual microseconds per page retrieval,
	// the metric of Table 7.
	MicrosPerPage float64
	// Requests is the number of pages served (and verified).
	Requests int
}

// Params configures a run.
type Params struct {
	Requests int
	Pages    int // distinct pages per server
	BodySize int // synthetic page body size in bytes
	Nodes    int
}

// DefaultParams matches the 2-CPU setup at test-friendly scale.
func DefaultParams() Params {
	return Params{Requests: 200, Pages: 64, BodySize: 1024, Nodes: 2}
}

// Run serves p.Requests requests at the given optimization level.
func Run(level rmi.OptLevel, p Params, clusterOpts ...rmi.Option) (Outcome, error) {
	if p.Nodes < 1 || p.Requests < 0 {
		return Outcome{}, fmt.Errorf("webserver: bad params")
	}
	cluster := rmi.New(p.Nodes, clusterOpts...)
	defer cluster.Close()
	res, err := core.CompileInto(Src, cluster.Registry)
	if err != nil {
		return Outcome{}, err
	}
	getSite := res.SiteByName("Main.handle.1")
	if getSite == nil {
		return Outcome{}, fmt.Errorf("webserver: get_page site missing")
	}
	csGet, err := appkit.Register(cluster, level, getSite)
	if err != nil {
		return Outcome{}, err
	}

	pageClass, _ := res.ModelClass("Page")
	headerClass, _ := res.ModelClass("Header")

	// One page server per machine, each preloaded with its table.
	refs := make([]rmi.Ref, p.Nodes)
	for w := 0; w < p.Nodes; w++ {
		table := make(map[string]*model.Object, p.Pages)
		for i := 0; i < p.Pages; i++ {
			url := pageURL(w, i)
			pg := model.New(pageClass)
			hdr := model.New(headerClass)
			hdr.Set("contentType", model.Str("text/html"))
			hdr.Set("status", model.Int(200))
			pg.Set("hdr", model.Ref(hdr))
			pg.Set("body", model.Str(body(url, p.BodySize)))
			table[url] = pg
		}
		srv := &rmi.Service{Name: "PageServer", Methods: map[string]rmi.Method{
			"get_page": func(call *rmi.Call, args []model.Value) []model.Value {
				call.Compute(lookupNS)
				pg, ok := table[args[0].S]
				if !ok {
					panic(fmt.Sprintf("webserver: no page %q", args[0].S))
				}
				return []model.Value{model.Ref(pg)}
			},
		}}
		refs[w] = cluster.Node(w).Export(srv)
	}

	// The master: forward each request to server[hash(url) % nodes].
	master := cluster.Node(0)
	for r := 0; r < p.Requests; r++ {
		target := r % p.Nodes // deterministic even spread across servers
		url := pageURL(target, r%p.Pages)
		rets, err := csGet.Invoke(master, refs[target], []model.Value{model.Str(url)})
		if err != nil {
			return Outcome{}, err
		}
		pg := rets[0].O
		if pg == nil || pg.Class != pageClass {
			return Outcome{}, fmt.Errorf("webserver: bad page for %q", url)
		}
		got := pg.Get("body").S
		if !strings.HasPrefix(got, url+":") || len(got) != p.BodySize {
			return Outcome{}, fmt.Errorf("webserver: wrong body for %q (%d bytes)", url, len(got))
		}
		if pg.GetRef("hdr").Get("status").I != 200 {
			return Outcome{}, fmt.Errorf("webserver: bad header for %q", url)
		}
	}

	out := Outcome{RunResult: appkit.Collect(cluster), Requests: p.Requests}
	if p.Requests > 0 {
		out.MicrosPerPage = out.Seconds * 1e6 / float64(p.Requests)
	}
	return out, nil
}

func pageURL(server, i int) string {
	return fmt.Sprintf("/srv%d/page%04d.html", server, i)
}

// body builds a deterministic page body of exactly n bytes, prefixed
// with the URL so the master can verify what it received.
func body(url string, n int) string {
	var b strings.Builder
	b.WriteString(url)
	b.WriteByte(':')
	h := fnv.New64a()
	h.Write([]byte(url))
	fill := fmt.Sprintf("<html>%016x</html>", h.Sum64())
	for b.Len() < n {
		b.WriteString(fill)
	}
	return b.String()[:n]
}
