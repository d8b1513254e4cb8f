package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans nest: a span's parent is the
// span open when it began. Start and End are offsets from the tracer's
// origin. Reported spans carry a duration the layer itself returned (the
// fallback share of a decide call) rather than one the benchmark timed.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // -1 for a root
	Name     string        `json:"name"`
	Request  string        `json:"request,omitempty"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Reported bool          `json:"reported,omitempty"`
}

// tracer records spans in memory, for one goroutine: the traced replay
// runs every call in sequence, so spans never overlap their siblings. A
// tracer that is off records nothing and reads no clock; timed calls
// through it report 0.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int // stack of open span ids
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name, req string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	if !t.on {
		return 0
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: span closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = t.now()
	return s.End - s.Start
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name, req string, f func()) time.Duration {
	id := t.begin(name, req)
	f()
	return t.end(id)
}

// reported adds a closed child span of the innermost open span that ends
// now and lasts d: a share of the enclosing call the layer timed itself.
func (t *tracer) reported(name, req string, d time.Duration) {
	if !t.on {
		return
	}
	end := t.now()
	parent := t.open[len(t.open)-1]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Request: req, Start: end - d, End: end, Reported: true})
}

// layerOf maps a span name ("core.decide") to its layer ("core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// accounting splits the spans' time into self time per span name: a
// span's duration minus the part its children cover. Harness spans
// (request grouping, bookkeeping) are not a layer's self time.
type accounting struct {
	wall     time.Duration // summed duration of the root spans
	self     map[string]time.Duration
	problems []string // spans left open or shorter than their children
}

func (t *tracer) account() accounting {
	a := accounting{self: map[string]time.Duration{}}
	if len(t.open) > 0 {
		a.problems = append(a.problems, fmt.Sprintf("%d spans left open", len(t.open)))
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			a.wall += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 && len(a.problems) < 10 {
			a.problems = append(a.problems, fmt.Sprintf("span %d %s (%s) lasts %v less than its children", s.ID, s.Name, s.Request, -self))
		}
		a.self[s.Name] += self
	}
	return a
}

// layerSelf is the summed self time of every layer's spans.
func (a accounting) layerSelf() time.Duration {
	var l time.Duration
	for name, d := range a.self {
		if layerOf(name) != "harness" {
			l += d
		}
	}
	return l
}

// layerShares returns each layer's self time as a share of wall, sorted by
// layer name.
func (a accounting) layerShares(wall time.Duration) []layerShare {
	by := map[string]time.Duration{}
	for name, d := range a.self {
		by[layerOf(name)] += d
	}
	out := make([]layerShare, 0, len(by))
	for l, d := range by {
		out = append(out, layerShare{Layer: l, Self: d, Share: frac(d.Seconds(), wall.Seconds())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

type layerShare struct {
	Layer string        `json:"layer"`
	Self  time.Duration `json:"self_ns"`
	Share float64       `json:"share"`
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
