package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/bca"
	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Replay sizes of the traced run: the first replayExact exact and
// replayApprox approx requests of the workload's streams, the first
// replayBatches edit batches, and bcaSample non-hub nodes.
const (
	replayExact   = 32
	replayApprox  = 16
	replayBatches = 8
	bcaSample     = 64
)

// runTraced is the --trace 1 run. It sets the workload up once with every
// setup layer in a span, sends the same traffic as the untraced run (read
// for the serving counters and the generator's lateness), then replays the
// workload's inputs one call at a time, twice: a traced and an untraced
// pass (see replay). Spans are written to the traces directory.
//
// The run fails if a span is shorter than its children, if the root spans
// do not cover the wall that the benchmark's own stopwatch measured around
// setup and the traced pass, or if the two passes count differently.
func runTraced(w spec, o options, out, report io.Writer) (result, error) {
	t := newTracer(true)
	m := newMetricSet(o.catalog.PerLayer)
	start := time.Now()
	fx, build, err := tracedSetUp(t, m, w, o)
	setupWall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	defer fx.d.close()
	printHeader(out, newHeader(w, o, fx.g.N(), fx.g.M()))
	m.set("bca.build_iters", float64(build.TotalIters))

	in, err := w.makeInputs(fx.g, o.seed, w.editBatchesFor(o.seconds))
	if err != nil {
		return result{}, err
	}
	s, err := drive(w, fx, in, o.seconds)
	if err != nil {
		return result{}, err
	}
	v := s.verdict
	st := s.stats
	served := float64(st.Served)
	m.set("serve.cache_hit_frac", frac(float64(st.CacheHits), served))
	m.set("serve.coalesced_frac", frac(float64(st.Coalesced), served))
	m.set("serve.spmm_batched_frac", frac(float64(st.SpMMBatchedQueries), float64(st.Computed)))
	m.set("serve.rejected", float64(st.Rejected))
	m.set("serve.epoch_misses", s.evicted)
	m.set("serve.compactions", float64(st.Compactions))
	var queueMax uint64
	var late []time.Duration
	for _, e := range s.edits {
		queueMax = max(queueMax, e.pending)
		late = append(late, e.late)
	}
	m.set("serve.maint_queue_max", float64(queueMax))
	m.set("loadgen.late_p90_ms", ms(percentile(late, 0.9)))
	fx.d.close()

	untraced, traced, err := replay(t, &v, w, fx, in, o)
	if err != nil {
		return result{}, err
	}
	traced.report(m)
	if !reflect.DeepEqual(untraced.counts, traced.counts) {
		v.fail("replay counts differ between the untraced and the traced pass: %v, %v", untraced.counts, traced.counts)
	}
	m.set("trace.overhead_frac", frac(traced.wall.Seconds(), untraced.wall.Seconds())-1)

	a := t.account()
	for _, p := range a.problems {
		v.fail("trace: %s", p)
	}
	wall := setupWall + traced.wall
	if gap := wall - a.wall; gap < 0 || gap > wall/100+time.Millisecond {
		v.fail("trace: root spans cover %v of the %v measured around them", a.wall, wall)
	}
	m.set("trace.unattributed_frac", 1-frac(a.layerSelf().Seconds(), wall.Seconds()))
	path, err := tracePath(o.workdir, w, o.seed)
	if err != nil {
		return result{}, err
	}
	if err := t.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(report, "%s seed=%d traced wall %v (untraced replay %v, traced %v), %d spans in %s\n",
		w.name, o.seed, wall, untraced.wall, traced.wall, len(t.spans), path)
	for _, l := range a.layerShares(wall) {
		fmt.Fprintf(report, "  self %-10s %10.3fs %6.2f%%\n", l.Layer, l.Self.Seconds(), 100*l.Share)
	}
	return finish(m, v, report)
}

// tracedSetUp is setUp with each setup layer in its own span. The hub
// matrix is also built on its own, outside lbindex.Build, to time that
// layer alone; the index is saved and loaded back to time persistence.
func tracedSetUp(t *tracer, m *metricSet, w spec, o options) (*fixture, lbindex.BuildStats, error) {
	var build lbindex.BuildStats
	root := t.begin("harness.setup", "")
	defer t.end(root)
	fx := &fixture{}
	var err error
	setM := map[string]time.Duration{}
	setM["gen.graph_s"] = t.timed("gen.graph", "", func() { fx.g, err = w.genGraph() })
	if err != nil {
		return nil, build, err
	}
	opts := w.indexOptions()
	setM["hub.build_s"] = t.timed("hub.build", "", func() {
		_, err = hub.Build(fx.g, hub.SelectByDegree(fx.g, opts.HubBudget), hubOptions(opts))
	})
	if err != nil {
		return nil, build, err
	}
	setM["lbindex.build_s"] = t.timed("lbindex.build", "", func() { fx.idx, build, err = lbindex.Build(fx.g, opts) })
	if err != nil {
		return nil, build, err
	}
	dir, err := os.MkdirTemp(o.workdir, "index-")
	if err != nil {
		return nil, build, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.rtk")
	setM["lbindex.save_s"] = t.timed("lbindex.save", "", func() { err = fx.idx.SaveFile(path) })
	if err != nil {
		return nil, build, err
	}
	setM["lbindex.load_s"] = t.timed("lbindex.load", "", func() { _, err = lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: true}) })
	if err != nil {
		return nil, build, err
	}
	t.timed("serve.start", "", func() { fx.d, err = startDaemon(w, fx.g, fx.idx, serve.Config{}, o.workdir) })
	if err != nil {
		return nil, build, err
	}
	for k, d := range setM {
		m.set(k, d.Seconds())
	}
	return fx, build, nil
}

func hubOptions(o lbindex.Options) hub.BuildOptions {
	return hub.BuildOptions{Omega: o.Omega, RWR: o.RWR, TopK: o.K, Workers: o.Workers}
}

// replayPass is one pass of the replay. It has state of its own — daemon,
// view, journal, overlay, index copy and BCA workspace — so that both
// passes meet every input in the same state. The untraced pass's tracer is
// off.
type replayPass struct {
	t      *tracer
	wall   time.Duration // the pass's units, timed outside the tracer
	g      *graph.Graph
	nodes  []graph.NodeID
	opts   lbindex.Options
	d      *daemon
	client *http.Client
	view   *core.View
	log    *wal.Log
	walDir string
	ov     *graph.Overlay
	idx    *lbindex.Index
	ws     *bca.Workspace
	times  map[string][]time.Duration // per-call durations by metric name
	counts map[string]int
}

func newReplayPass(t *tracer, fx *fixture, o options) (*replayPass, error) {
	p := &replayPass{
		t: t, g: fx.g, nodes: fx.idx.OwnedNodes(), opts: fx.idx.Options(),
		ov: graph.NewOverlay(fx.g), idx: fx.idx.Clone(), ws: bca.NewWorkspace(fx.g.N()),
		times: map[string][]time.Duration{}, counts: map[string]int{},
	}
	var err error
	if p.view, err = core.NewView(fx.g, fx.idx); err != nil {
		return nil, err
	}
	if p.walDir, err = os.MkdirTemp(o.workdir, "wal-"); err != nil {
		return nil, err
	}
	if p.log, _, err = wal.Open(filepath.Join(p.walDir, "replay.wal"), wal.Options{}); err != nil {
		os.RemoveAll(p.walDir)
		return nil, err
	}
	// One worker, as View.Query gets below, so that serve.overhead_ms
	// compares like with like.
	if p.d, err = startDaemon(spec{}, fx.g, fx.idx, serve.Config{WorkerBudget: 1}, o.workdir); err != nil {
		p.log.Close()
		os.RemoveAll(p.walDir)
		return nil, err
	}
	p.client = newClient()
	return p, nil
}

func (p *replayPass) close() error {
	p.client.CloseIdleConnections()
	p.d.close()
	err := p.log.Close()
	if rerr := os.RemoveAll(p.walDir); err == nil {
		err = rerr
	}
	return err
}

func (p *replayPass) add(name string, d time.Duration) { p.times[name] = append(p.times[name], d) }

// replay replays the first requests of the workload's streams, its first
// edit batches and a node sample one call at a time, in an untraced and a
// traced pass. Unit by unit the passes alternate which goes first, so that
// neither always finds the caches warm. Each pass times its units with a
// stopwatch of its own; the answers are checked outside it.
//
// An exact request goes through the daemon (serve.http), View.Query
// (core.query), rwr.ProximityToParallel (rwr.pmpn) and View.DecideList
// over all nodes (core.decide, with the fallback share it reports as
// core.fallback); an approx request through the daemon and
// View.QueryAnytime (core.approx); an edit batch through each maintenance
// layer in the order the daemon runs them; a node through bca.Run and
// bca.TopK against the built hub matrix. Every unit is a root span.
func replay(t *tracer, v *verdict, w spec, fx *fixture, in *inputs, o options) (untraced, traced *replayPass, err error) {
	var exact, approx []request
	for _, r := range in.requests {
		if r.approx && len(approx) < replayApprox {
			approx = append(approx, r)
		} else if !r.approx && len(exact) < replayExact {
			exact = append(exact, r)
		}
	}
	var passes [2]*replayPass
	for i, tr := range []*tracer{newTracer(false), t} {
		if passes[i], err = newReplayPass(tr, fx, o); err != nil {
			return nil, nil, err
		}
		defer func() {
			if cerr := passes[i].close(); err == nil {
				err = cerr
			}
		}()
	}
	alternate := func(n int, unit func(p *replayPass, i int) error) error {
		for i := range n {
			for j := range 2 {
				p := passes[(i+j)%2]
				start := time.Now()
				err := unit(p, i)
				p.wall += time.Since(start)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	var exactOut [2][]exactOutcome
	err = alternate(len(exact), func(p *replayPass, i int) error {
		out, err := p.exact(w, i, exact[i])
		exactOut[indexOf(passes, p)] = append(exactOut[indexOf(passes, p)], out)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var approxOut [2][]approxOutcome
	err = alternate(len(approx), func(p *replayPass, i int) error {
		out, err := p.approx(w, i, approx[i])
		approxOut[indexOf(passes, p)] = append(approxOut[indexOf(passes, p)], out)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	batches := in.edits[:min(replayBatches, len(in.edits))]
	if err := alternate(len(batches), func(p *replayPass, i int) error { return p.edit(i, batches[i]) }); err != nil {
		return nil, nil, err
	}
	sample := bcaNodes(fx, o.seed)
	if err := alternate(len(sample), func(p *replayPass, i int) error { return p.bca(sample[i]) }); err != nil {
		return nil, nil, err
	}

	for pi := range passes {
		for i, out := range exactOut[pi] {
			out.check(v, w, exact[i])
		}
		for i, out := range approxOut[pi] {
			out.check(v, w, approx[i])
		}
	}
	return passes[0], passes[1], nil
}

func indexOf(passes [2]*replayPass, p *replayPass) int {
	if passes[0] == p {
		return 0
	}
	return 1
}

// exactOutcome is what one exact unit returned, for the check.
type exactOutcome struct {
	status   int
	body     []byte
	herr     error
	res      []graph.NodeID
	qs, ds   core.QueryStats
	iters    int
	decision []graph.NodeID
}

func (p *replayPass) exact(w spec, i int, r request) (exactOutcome, error) {
	t := p.t
	id := fmt.Sprintf("exact-%d", i)
	var o exactOutcome
	root := t.begin("harness.request", id)
	var cache string
	httpD := t.timed("serve.http", id, func() { o.status, cache, o.body, o.herr = query(p.client, p.d.url, r, w.k) })
	var err error
	queryD := t.timed("core.query", id, func() { o.res, o.qs, err = p.view.Query(r.q, w.k, 1) })
	if err != nil {
		return o, err
	}
	var pm rwr.Result
	pmpnD := t.timed("rwr.pmpn", id, func() { pm, err = rwr.ProximityToParallel(p.g, r.q, p.opts.RWR, 1) })
	if err != nil {
		return o, err
	}
	dec := t.begin("core.decide", id)
	if o.decision, o.ds, err = p.view.DecideList(pm.Vector, w.k, p.nodes, 1); err != nil {
		return o, err
	}
	t.reported("core.fallback", id, o.ds.FallbackElapsed)
	decideD := t.end(dec)
	t.end(root)

	p.add("core.query_ms", queryD)
	p.add("rwr.pmpn_ms", pmpnD)
	p.add("core.decide_ms", decideD)
	p.add("core.fallback_ms", o.ds.FallbackElapsed)
	if cache == "MISS" {
		p.add("serve.overhead_ms", httpD-queryD)
	}
	o.iters = pm.Iterations
	p.counts["rwr.pmpn_iters"] += pm.Iterations
	p.counts["core.candidates"] += o.qs.Candidates
	p.counts["core.hits"] += o.qs.Hits
	p.counts["core.refine_steps"] += o.qs.RefineSteps
	p.counts["core.exact_fallbacks"] += o.qs.ExactFallbacks
	p.counts["core.results"] += o.qs.Results
	return o, nil
}

// check holds the daemon's answer byte-equal to View.Query's, and the
// counts of View.Query, DecideList and the PMPN call equal.
func (o exactOutcome) check(v *verdict, w spec, r request) {
	res := o.res
	if res == nil {
		res = []graph.NodeID{}
	}
	want, _ := json.Marshal(serve.QueryResponse{Query: r.q, K: w.k, Epoch: 1, Count: len(res), Results: res})
	v.attempted++
	switch {
	case o.herr != nil || o.status != http.StatusOK || string(o.body) != string(want):
		v.fail("replay q=%d: daemon answered %d %s (%v), View.Query gives %s", r.q, o.status, o.body, o.herr, want)
	case !sameCounts(o.qs, o.ds) || o.qs.PMPNIters != o.iters:
		v.fail("replay q=%d: counts differ between calls: %+v, %+v, %d PMPN iterations", r.q, o.qs, o.ds, o.iters)
	case !reflect.DeepEqual(o.decision, nilIfEmpty(o.res)):
		v.fail("replay q=%d: DecideList %v, Query %v", r.q, o.decision, o.res)
	}
}

// approxOutcome is what one approx unit returned, for the check.
type approxOutcome struct {
	status int
	body   []byte
	herr   error
	ar     *core.AnytimeResult
}

func (p *replayPass) approx(w spec, i int, r request) (approxOutcome, error) {
	t := p.t
	id := fmt.Sprintf("approx-%d", i)
	var o approxOutcome
	root := t.begin("harness.request", id)
	t.timed("serve.http", id, func() { o.status, _, o.body, o.herr = query(p.client, p.d.url, r, w.k) })
	var err error
	approxD := t.timed("core.approx", id, func() {
		o.ar, err = p.view.QueryAnytime(r.q, w.k, core.AnytimeOptions{Eps: approxEps, Delta: approxDelta}, 1)
	})
	if err != nil {
		return o, err
	}
	t.end(root)
	p.add("core.approx_ms", approxD)
	p.counts["core.approx_rounds"] += o.ar.Stats.Rounds
	p.counts["maybe"] += len(o.ar.Maybe)
	p.counts["guaranteed"] += len(o.ar.Guaranteed)
	return o, nil
}

// check holds the daemon's approx answer equal to QueryAnytime's.
func (o approxOutcome) check(v *verdict, w spec, r request) {
	var got serve.ApproxQueryResponse
	v.attempted++
	if o.herr != nil || o.status != http.StatusOK || json.Unmarshal(o.body, &got) != nil ||
		!reflect.DeepEqual(nilIfEmpty(got.Results), nilIfEmpty(o.ar.Guaranteed)) || !reflect.DeepEqual(nilIfEmpty(got.Maybe), nilIfEmpty(o.ar.Maybe)) {
		v.fail("replay approx q=%d: daemon answered %d %s (%v), QueryAnytime gives %v maybe %v", r.q, o.status, o.body, o.herr, o.ar.Guaranteed, o.ar.Maybe)
	}
}

func sameCounts(a, b core.QueryStats) bool {
	return a.Candidates == b.Candidates && a.Hits == b.Hits && a.RefineSteps == b.RefineSteps &&
		a.ExactFallbacks == b.ExactFallbacks && a.Results == b.Results
}

func nilIfEmpty(s []graph.NodeID) []graph.NodeID {
	if len(s) == 0 {
		return nil
	}
	return s
}

// edit replays edit batch i through each maintenance layer in the order
// the daemon runs them: journal append with fsync, overlay apply,
// affected-origin search, hub rebuild, and the partial refresh of an index
// clone (which rebuilds the affected hubs again inside it).
func (p *replayPass) edit(i int, batch []evolve.Edit) error {
	t := p.t
	id := fmt.Sprintf("edit-%d", i)
	root := t.begin("harness.edit", id)
	var err error
	appendD := t.timed("wal.append", id, func() {
		err = p.log.Append(wal.Record{Watermark: uint64(i + 1), Theta: editTheta, Edits: batch})
	})
	if err != nil {
		return err
	}
	var next *graph.Overlay
	applyD := t.timed("graph.apply", id, func() { next, err = p.ov.Apply(batch) })
	if err != nil {
		return err
	}
	var aff []graph.NodeID
	affD := t.timed("evolve.affected", id, func() {
		aff, err = evolve.AffectedOrigins(next, evolve.Sources(batch), editTheta, p.opts.RWR)
	})
	if err != nil {
		return err
	}
	var origins, hubs []graph.NodeID
	hm := p.idx.HubMatrix()
	for _, u := range aff {
		if hm.IsHub(u) {
			hubs = append(hubs, u)
		} else {
			origins = append(origins, u)
		}
	}
	rebuildD := t.timed("hub.rebuild", id, func() { _, err = hub.Rebuild(next, hm, hubs, hubOptions(p.opts)) })
	if err != nil {
		return err
	}
	nextIdx := p.idx.Clone()
	refreshD := t.timed("evolve.refresh", id, func() { _, err = evolve.RefreshPartial(next, nextIdx, origins, hubs) })
	if err != nil {
		return err
	}
	t.end(root)
	p.ov, p.idx = next, nextIdx
	p.add("wal.append_ms", appendD)
	p.add("graph.apply_ms", applyD)
	p.add("evolve.affected_ms", affD)
	p.add("hub.rebuild_ms", rebuildD)
	p.add("evolve.refresh_ms", refreshD)
	p.counts["evolve.affected"] += len(aff)
	p.counts["hub.rebuilt"] += len(hubs)
	return nil
}

// bcaNodes draws the seeded sample of non-hub nodes the BCA units run on.
func bcaNodes(fx *fixture, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed ^ 0xbca))
	hm := fx.idx.HubMatrix()
	var out []graph.NodeID
	for i := 0; len(out) < bcaSample && i < 100*bcaSample; i++ {
		if u := graph.NodeID(rng.Intn(fx.g.N())); !hm.IsHub(u) {
			out = append(out, u)
		}
	}
	return out
}

// bca times bca.Run and bca.TopK for node u against the built hub matrix.
func (p *replayPass) bca(u graph.NodeID) error {
	t := p.t
	id := fmt.Sprintf("bca-%d", u)
	hm := p.view.Index().HubMatrix()
	root := t.begin("harness.bca", id)
	var st *bca.State
	var err error
	runD := t.timed("bca.run", id, func() { st, err = bca.Run(p.g, u, hm, p.opts.BCA, p.ws) })
	if err != nil {
		return err
	}
	topD := t.timed("bca.topk", id, func() { bca.TopK(st, hm, p.ws, p.opts.K) })
	t.end(root)
	p.add("bca.run_us", runD)
	p.add("bca.topk_us", topD)
	return nil
}

// report sets the layer metrics from the pass: times are means per call
// (BCA's in microseconds), counts totals over the replay.
func (p *replayPass) report(m *metricSet) {
	for _, name := range []string{
		"core.query_ms", "rwr.pmpn_ms", "core.decide_ms", "core.fallback_ms", "core.approx_ms", "serve.overhead_ms",
		"wal.append_ms", "graph.apply_ms", "evolve.affected_ms", "hub.rebuild_ms", "evolve.refresh_ms",
	} {
		m.set(name, meanMS(p.times[name]))
	}
	m.set("bca.run_us", 1000*meanMS(p.times["bca.run_us"]))
	m.set("bca.topk_us", 1000*meanMS(p.times["bca.topk_us"]))
	for _, name := range []string{
		"rwr.pmpn_iters", "core.candidates", "core.hits", "core.refine_steps", "core.exact_fallbacks",
		"core.results", "core.approx_rounds", "evolve.affected", "hub.rebuilt",
	} {
		m.set(name, float64(p.counts[name]))
	}
	c := p.counts
	m.set("core.hit_frac", frac(float64(c["core.hits"]), float64(c["core.candidates"])))
	m.set("core.fallback_frac", frac(float64(c["core.exact_fallbacks"]), float64(c["core.candidates"])))
	m.set("core.maybe_frac", frac(float64(c["maybe"]), float64(c["maybe"]+c["guaranteed"])))
}
