// Command perfbench is the repository's benchmark. It drives serve.Server
// over loopback HTTP with one workload, checks every answer, and prints the
// workload's metrics; see README.md.
//
//	bash perfbench/run.sh --workload web-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same traffic, then replays the workload's inputs one call at a time
// under a span tracer and reports the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "run seed: the query traffic is generated from it")
	seconds := flag.Float64("seconds", 10, "length of the measured load phase")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced replay")
	commit := flag.String("commit", "unknown", "commit recorded in the header")
	workdir := flag.String("workdir", ".bench_build", "directory for journals, index files and traces")
	catalogPath := flag.String("catalog", "BENCHMARK.json", "the benchmark declaration: workloads and metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	cat, err := loadCatalog(*catalogPath)
	if err != nil {
		fail(err)
	}
	var specs []spec
	if *name == "all" {
		specs = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fail(err)
		}
		specs = []spec{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, commit: *commit, workdir: *workdir, catalog: cat}
	res, err := runAll(specs, o, os.Stdout, os.Stderr)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs the workloads one after another in this process. Before
// each it returns freed memory to the system and resets the resident-set
// high-water mark, so that peak_rss_mb is the workload's own. One workload
// gives its own result; several give one result whose metric names are
// prefixed with the workload's.
func runAll(specs []spec, o options, out, report io.Writer) (result, error) {
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	var last result
	for _, w := range specs {
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil && len(specs) > 1 {
			return result{}, fmt.Errorf("resetting the peak resident set: %w", err)
		}
		res, err := runWorkload(w, o, out, report)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		last = res
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[w.name+"/"+k] = v
		}
	}
	if len(specs) > 1 {
		return combined, nil
	}
	return last, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	commit  string
	workdir string
	catalog *catalog
}

// header opens every record: what ran, where, and on what inputs.
type header struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	WorkerBudget int     `json:"serve_worker_budget"`
	QueryWorkers string  `json:"query_workers"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Family       string  `json:"graph_family"`
	GraphSeed    int64   `json:"graph_seed"`
	N            int     `json:"graph_n"`
	M            int     `json:"graph_m"`
	IndexK       int     `json:"index_k"`
	HubBudget    int     `json:"index_b"`
	K            int     `json:"query_k"`
	Clients      int     `json:"clients"`
	ApproxEvery  int     `json:"approx_every"`
	EditRate     float64 `json:"edit_rate_per_s,omitempty"`
	EditBatch    int     `json:"edit_batch"`
	EditTheta    float64 `json:"edit_theta"`
}

func newHeader(w spec, o options, n, m int) header {
	workers := "budget/active computations, at least 1"
	if o.traced {
		workers = "1 in the traced replay; " + workers + " in the load phase"
	}
	return header{
		Commit:       o.commit,
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		WorkerBudget: runtime.GOMAXPROCS(0),
		QueryWorkers: workers,
		Workload:     w.name,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.traced,
		Family:       w.family,
		GraphSeed:    graphSeed,
		N:            n,
		M:            m,
		IndexK:       w.indexK,
		HubBudget:    w.hubBudget,
		K:            w.k,
		Clients:      w.clients,
		ApproxEvery:  approxEvery,
		EditRate:     w.editRate,
		EditBatch:    editBatchSize,
		EditTheta:    editTheta,
	}
}

// served is what one run's traffic produced.
type served struct {
	load     phase
	approx   []reply     // approx replies of the main phase
	edits    []editReply // edit replies: main phase or probe
	stats    serve.StatsResponse
	evicted  float64 // cache entries dropped by epoch bumps
	peakRSS  float64 // MB, over setup and the main phase
	verdict  verdict
	exactLat []time.Duration
}

// drive sends a workload's traffic to a set-up fixture and checks every
// answer: the main phase, then the edit probe that gives workloads without
// an edit stream edit-visibility samples, then the correctness gate.
//
// Between the pieces of the main phase, a workload without an edit stream,
// whose answers all come from the built snapshot, computes the scalar
// answers the gate needs so far.
func drive(w spec, fx *fixture, in *inputs, seconds float64) (*served, error) {
	built, err := core.NewView(fx.g, fx.idx)
	if err != nil {
		return nil, err
	}
	known := map[answerKey][]graph.NodeID{}
	var precomputeErr error
	between := func(replies []reply) {
		if w.editRate > 0 || precomputeErr != nil {
			return
		}
		for _, r := range replies {
			if key := (answerKey{r.req.q, 1}); known[key] == nil {
				known[key] = nil
			}
		}
		precomputeErr = exactAnswers(map[uint64]*core.View{1: built}, w.k, known)
	}
	s := &served{load: runLoad(w, fx.d, in, seconds, between)}
	if precomputeErr != nil {
		return nil, precomputeErr
	}
	if s.stats, s.evicted, err = scrape(fx.d.url); err != nil {
		return nil, err
	}
	for _, r := range s.load.replies {
		if r.req.approx {
			s.approx = append(s.approx, r)
		}
	}
	// The peak is read before the edit probe, which is not part of the
	// workload: each probe batch publishes an index snapshot, and over a
	// 32-batch probe the peak grew by half and spread by 14% of its median
	// with the timing of garbage collection.
	s.peakRSS = peakRSSMB()
	s.edits = s.load.edits
	if w.editRate == 0 {
		s.edits = runEditProbe(fx.d, in.edits)
	}

	for _, r := range s.load.replies {
		if !r.req.approx && r.err == nil && r.status == http.StatusOK {
			s.exactLat = append(s.exactLat, r.lat)
		}
	}
	if s.verdict, err = check(w, fx.g, fx.idx, in, s.load.replies, s.edits, known); err != nil {
		return nil, err
	}
	return s, nil
}

// scrape reads the serving counters after the main phase.
func scrape(base string) (serve.StatsResponse, float64, error) {
	var st serve.StatsResponse
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, 0, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, 0, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return st, 0, fmt.Errorf("parsing /metrics: %w", err)
	}
	evicted, _ := obs.SampleValue(fams, "rtk_cache_evictions_total", map[string]string{"cause": "epoch"})
	return st, evicted, nil
}

func latencies(rs []reply) []time.Duration {
	var out []time.Duration
	for _, r := range rs {
		if r.err == nil && r.status == http.StatusOK {
			out = append(out, r.lat)
		}
	}
	return out
}

func visibilities(es []editReply) []time.Duration {
	var out []time.Duration
	for _, e := range es {
		if e.err == nil && e.status == http.StatusOK {
			out = append(out, e.visible())
		}
	}
	return out
}

// runWorkload runs one workload and returns its result line; the header
// and a readable report go to out and report.
func runWorkload(w spec, o options, out, report io.Writer) (result, error) {
	if o.traced {
		return runTraced(w, o, out, report)
	}
	var fx *fixture
	setups := make([]time.Duration, 0, setupReps)
	for range setupReps {
		if fx != nil {
			fx.d.close()
			fx = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var err error
		if fx, err = setUp(w, o.workdir); err != nil {
			return result{}, err
		}
		setups = append(setups, fx.setup)
	}
	defer fx.d.close()
	printHeader(out, newHeader(w, o, fx.g.N(), fx.g.M()))

	in, err := w.makeInputs(fx.g, o.seed, w.editBatchesFor(o.seconds))
	if err != nil {
		return result{}, err
	}
	s, err := drive(w, fx, in, o.seconds)
	if err != nil {
		return result{}, err
	}

	m := newMetricSet(o.catalog.EndToEnd)
	m.set("setup_s", percentile(setups, 0.5).Seconds())
	m.set("query_gmean_ms", geomeanMS(s.exactLat))
	m.set("query_p90_ms", ms(percentile(s.exactLat, 0.9)))
	m.set("query_qps", float64(len(latencies(s.load.replies)))/s.load.wall.Seconds())
	apx := latencies(s.approx)
	m.set("approx_p50_ms", ms(percentile(apx, 0.5)))
	vis := visibilities(s.edits)
	m.set("edit_visible_gmean_ms", geomeanMS(vis))
	m.set("index_mb", float64(fx.idx.SizeBytes())/1e6)
	m.set("peak_rss_mb", s.peakRSS)

	fmt.Fprintf(report, "%s seed=%d: %d exact, %d approx, %d edit batches; setups %v\n",
		w.name, o.seed, len(s.exactLat), len(apx), len(vis), setups)
	fmt.Fprintf(report, "  edit visibility by batch (ms): %.0f\n", msList(vis))
	return finish(m, s.verdict, report)
}

// finish checks that every declared metric was set and builds the result.
func finish(m *metricSet, v verdict, report io.Writer) (result, error) {
	if miss := m.missing(); len(miss) > 0 {
		return result{}, fmt.Errorf("metrics not reported: %v", miss)
	}
	names := make([]string, 0, len(m.values))
	for k := range m.values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(report, "  %-26s %14.4f %s\n", k, m.values[k].Value, m.values[k].Unit)
	}
	fmt.Fprintf(report, "  %-26s %14.4f ratio (%d of %d operations)\n", "error_frac", frac(float64(v.failed), float64(v.attempted)), v.failed, v.attempted)
	for _, p := range v.problems {
		fmt.Fprintln(report, "  FAIL:", p)
	}
	return result{Correct: v.failed == 0, Attempted: max(v.attempted, 1), Failed: v.failed, Metrics: m.values}, nil
}

func printHeader(out io.Writer, h header) {
	line, _ := json.Marshal(map[string]header{"header": h})
	fmt.Fprintln(out, string(line))
}

func tracePath(workdir string, w spec, seed int64) (string, error) {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), nil
}
