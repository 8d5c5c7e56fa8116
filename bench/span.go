package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// span is one timed interval of the traced pass. Times are nanoseconds
// since the pass began. Spans are recorded from the benchmark's own
// files, around its calls into each layer; nothing inside the program
// is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     uint64 `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"` // which call or direction of the op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part children cover
}

const (
	noParent = -1
	// parentByContainment marks a span recorded on another goroutine
	// than its parent (the service method runs on the callee): merge
	// attaches it to the same operation's span named wantParent whose
	// interval contains it.
	parentByContainment = -2
)

// spanBuf is one goroutine's preallocated span store. All methods are
// no-ops on a nil buffer, so untraced code paths carry one nil check.
// A full buffer drops further spans; the traced stage stops at that
// point (see tracedPass), so nothing is silently truncated.
type spanBuf struct {
	spans      []rawSpan
	wantParent string
	mu         *sync.Mutex // set only for the buffer callee goroutines share
}

type rawSpan struct {
	name, note string
	op         uint64
	parent     int // index into the same buffer, noParent or parentByContainment
	start, end int64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]rawSpan, 0, capacity)}
}

// newSharedSpanBuf is for spans recorded by callee goroutines, which
// attach to wantParent spans by containment.
func newSharedSpanBuf(capacity int, wantParent string) *spanBuf {
	b := newSpanBuf(capacity)
	b.wantParent = wantParent
	b.mu = new(sync.Mutex)
	return b
}

func (b *spanBuf) full() bool { return b != nil && len(b.spans) == cap(b.spans) }

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, op uint64, parent int, start int64) int {
	if b == nil || len(b.spans) == cap(b.spans) {
		return noParent
	}
	b.spans = append(b.spans, rawSpan{name: name, op: op, parent: parent, start: start})
	return len(b.spans) - 1
}

func (b *spanBuf) end(idx int, end int64) {
	if b != nil && idx >= 0 {
		b.spans[idx].end = end
	}
}

// add records a finished span.
func (b *spanBuf) add(name, note string, op uint64, parent int, start, end int64) {
	if b == nil {
		return
	}
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	if len(b.spans) == cap(b.spans) {
		return
	}
	b.spans = append(b.spans, rawSpan{name: name, note: note, op: op, parent: parent, start: start, end: end})
}

// mergeSpans numbers the spans of all buffers, resolves parents and
// computes self times.
func mergeSpans(bufs ...*spanBuf) []span {
	var out []span
	type key struct {
		op   uint64
		name string
	}
	byOpName := map[key][]int{} // indices into out
	type orphan struct {
		idx  int
		want string // name of the parent span to look for
	}
	var orphans []orphan
	for _, b := range bufs {
		if b == nil {
			continue
		}
		base := len(out)
		for _, r := range b.spans {
			s := span{ID: len(out) + 1, Op: r.op, Name: r.name, Note: r.note, Start: r.start, End: r.end}
			switch {
			case r.parent >= 0:
				s.Parent = base + r.parent + 1
			case r.parent == parentByContainment:
				orphans = append(orphans, orphan{len(out), b.wantParent})
			}
			k := key{r.op, r.name}
			byOpName[k] = append(byOpName[k], len(out))
			out = append(out, s)
		}
	}
	for _, o := range orphans {
		child := &out[o.idx]
		for _, j := range byOpName[key{child.Op, o.want}] {
			if out[j].Start <= child.Start && child.End <= out[j].End {
				child.Parent = out[j].ID
				break
			}
		}
	}
	computeSelf(out)
	return out
}

// computeSelf sets each span's self time: its duration minus the part
// of that interval its direct children cover (overlapping children are
// not counted twice; a child reaching outside its parent is clipped).
func computeSelf(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), p.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < cursor {
				s = cursor
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				covered += e - s
				cursor = e
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// nameAgg is what the spans of one name add up to.
type nameAgg struct {
	perOp []int64 // ascending: per operation, the summed duration of its spans of this name
	spans int     // how many spans made up those sums
}

// perOpSums adds up, per operation, the durations of spans with each
// name. An operation with two spans of one name (an op that makes two
// calls) contributes their sum, so a layer's number is its cost per op.
func perOpSums(spans []span) map[string]nameAgg {
	type key struct {
		op   uint64
		name string
	}
	sums := map[key]int64{}
	count := map[string]int{}
	for _, s := range spans {
		sums[key{s.Op, s.Name}] += s.End - s.Start
		count[s.Name]++
	}
	perOp := map[string][]int64{}
	for k, v := range sums {
		perOp[k.name] = append(perOp[k.name], v)
	}
	out := map[string]nameAgg{}
	for name, vs := range perOp {
		slices.Sort(vs)
		out[name] = nameAgg{perOp: vs, spans: count[name]}
	}
	return out
}

// writeSpans writes one workload's spans as a JSON file under dir.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Unit     string `json:"time_unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since the traced pass began", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
