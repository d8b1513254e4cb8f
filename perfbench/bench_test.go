package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// small shrinks a workload to a graph the brute-force oracle handles in
// milliseconds, with short streams.
func small(w spec) spec {
	w.n = 300
	if w.editRate > 0 {
		w.editRate = 20
	}
	if w.probeEdits > 0 {
		w.probeEdits = 3
	}
	return w
}

// TestWorkloadsAgainstBruteForce drives every workload, shrunk, through a
// daemon and checks each exact answer served from the built snapshot
// against core.BruteForce, besides the benchmark's own gate. Answers from
// later epochs are left to the gate: at θ > 0 a refresh keeps the bounds
// of origins the edits barely reach, so they may differ from brute force
// on the edited graph by design.
func TestWorkloadsAgainstBruteForce(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			fx, err := setUp(w, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer fx.d.close()
			in, err := w.makeInputs(fx.g, 7, w.editBatchesFor(0.5))
			if err != nil {
				t.Fatal(err)
			}
			s, err := drive(w, fx, in, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if s.verdict.failed != 0 {
				t.Fatalf("gate failed %d of %d: %v", s.verdict.failed, s.verdict.attempted, s.verdict.problems)
			}
			if len(s.exactLat) == 0 || len(s.approx) == 0 || len(s.edits) == 0 {
				t.Fatalf("no samples: %d exact, %d approx, %d edits", len(s.exactLat), len(s.approx), len(s.edits))
			}
			params := fx.idx.Options().RWR
			cols, err := rwr.ProximityMatrix(fx.g, params, 1)
			if err != nil {
				t.Fatal(err)
			}
			checked := map[graph.NodeID]bool{}
			for _, r := range s.load.replies {
				var resp serve.QueryResponse
				if r.req.approx || checked[r.req.q] {
					continue
				}
				if err := json.Unmarshal(r.body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Epoch != 1 {
					continue
				}
				want, err := core.BruteForce(fx.g, r.req.q, w.k, params, 1)
				if err != nil {
					t.Fatal(err)
				}
				if u, ok := clearMismatch(cols, r.req.q, w.k, resp.Results, want); ok {
					t.Fatalf("q=%d: node %d: daemon %v, brute force %v", r.req.q, u, resp.Results, want)
				}
				checked[r.req.q] = true
			}
			if len(checked) == 0 {
				t.Fatal("no answer from the built snapshot checked")
			}
		})
	}
}

// nearTie bounds |p_u(q) − kth largest of p_u| below which brute force and
// the engine may place u on either side: both solve to an L1 tolerance of
// 1e-10, and the copying model makes near-twin nodes whose proximities
// differ by about 1e-9.
const nearTie = 1e-8

// clearMismatch returns a node on which got and want disagree although
// p_u(q) is not within nearTie of u's k-th largest proximity.
func clearMismatch(cols [][]float64, q graph.NodeID, k int, got, want []graph.NodeID) (graph.NodeID, bool) {
	in := map[graph.NodeID]int{}
	for _, u := range got {
		in[u]++
	}
	for _, u := range want {
		in[u]--
	}
	for u, c := range in {
		if c != 0 && math.Abs(cols[u][q]-vecmath.KthLargest(cols[u], k)) > nearTie {
			return u, true
		}
	}
	return 0, false
}

// TestGateCatchesWrongAnswer feeds the gate a reply whose body was altered.
func TestGateCatchesWrongAnswer(t *testing.T) {
	w := small(workloads[0])
	fx, err := setUp(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.d.close()
	in, err := w.makeInputs(fx.g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, cache, body, err := query(newClient(), fx.d.url, in.requests[0], w.k)
	if err != nil || status != http.StatusOK {
		t.Fatalf("query: %d %v", status, err)
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Results = append(resp.Results, graph.NodeID(w.n+1))
	resp.Count++
	bad, _ := json.Marshal(resp)
	r := reply{req: in.requests[0], status: status, cache: cache, body: bad}
	v, err := check(w, fx.g, fx.idx, in, []reply{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 || v.attempted != 1 {
		t.Fatalf("gate: %d failed of %d attempted, want 1 of 1", v.failed, v.attempted)
	}
}

// TestTracedRunRepeatsCounts runs the traced run twice on one seed: the
// per-layer counts must repeat exactly. Within each run the gate already
// holds the untraced and the traced pass to the same counts and the spans
// to the wall measured around them.
func TestTracedRunRepeatsCounts(t *testing.T) {
	counts := []string{
		"core.candidates", "core.hits", "core.refine_steps", "core.exact_fallbacks", "core.results",
		"rwr.pmpn_iters", "core.approx_rounds", "bca.build_iters", "evolve.affected", "hub.rebuilt",
	}
	w := small(workloads[2])
	var first result
	for run := range 2 {
		res, err := runWorkload(w, options{seed: 5, seconds: 0.3, traced: true, workdir: t.TempDir(), catalog: testCatalog(t)}, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("run %d: traced run failed its gate", run)
		}
		if run == 0 {
			first = res
			continue
		}
		for _, name := range counts {
			if a, b := first.Metrics[name].Value, res.Metrics[name].Value; a != b {
				t.Errorf("%s: %v then %v", name, a, b)
			}
		}
	}
}

// testCatalog reads the repository's BENCHMARK.json.
func testCatalog(t *testing.T) *catalog {
	t.Helper()
	c, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPrintedNamesMatchDeclared runs each mode once and compares the
// metric names and units of the result line with the declared ones.
func TestPrintedNamesMatchDeclared(t *testing.T) {
	c := testCatalog(t)
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, c.EndToEnd}, {true, c.PerLayer}} {
		res, err := runWorkload(small(workloads[1]), options{seed: 2, seconds: 0.3, traced: tc.traced, workdir: t.TempDir(), catalog: c}, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		for _, def := range tc.defs {
			want = append(want, def.Name+" "+def.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: printed %v, declared %v", tc.traced, got, want)
		}
	}
}

// TestPeakRSSIsPerWorkload runs two workloads in sequence after touching a
// ballast far larger than either of them needs, standing in for an earlier,
// larger workload: each must report its own peak, not the ballast's.
func TestPeakRSSIsPerWorkload(t *testing.T) {
	const ballastMB = 384
	ballast := make([]byte, ballastMB<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	runtime.KeepAlive(ballast)
	if peak := peakRSSMB(); peak < ballastMB {
		t.Skipf("VmHWM not readable here (%.0f MB)", peak)
	}
	ballast = nil
	specs := []spec{small(workloads[0]), small(workloads[1])}
	res, err := runAll(specs, options{seed: 4, seconds: 0.3, workdir: t.TempDir(), catalog: testCatalog(t)}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range specs {
		if peak := res.Metrics[w.name+"/peak_rss_mb"].Value; peak <= 0 || peak > ballastMB/2 {
			t.Errorf("%s: peak_rss_mb %.0f, want its own peak, far below the %d MB ballast", w.name, peak, ballastMB)
		}
	}
}
