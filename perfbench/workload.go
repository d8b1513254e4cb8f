package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/evolve"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
)

// spec describes one workload: the graph it serves, the index built over
// it, and the traffic the load generator sends.
type spec struct {
	name   string
	family string // "web" (copying model) or "social" (preferential attachment)
	n      int
	// indexK and hubBudget are the lbindex K and B.
	indexK, hubBudget int
	// k is the query k of every request.
	k int
	// clients is the number of closed-loop query clients.
	clients int
	// repeatShare, when positive, is the exact share of exact requests
	// that repeat the node of an earlier exact request, picked by a Zipf
	// popularity with exponent zipf over the order nodes were first asked
	// for; the other exact requests ask for a node not asked for before.
	// Otherwise exact requests are uniform with replacement.
	repeatShare, zipf float64
	// editRate is the open-loop edit-batch rate of the main phase in
	// batches per second; 0 sends no edits beside the queries.
	editRate float64
	// probeEdits is the number of edit batches that a workload without an
	// edit stream sends, one at a time, after its query phase, so that
	// every workload reports edit visibility.
	probeEdits int
}

// Edit stream and anytime-tier parameters shared by every workload.
const (
	editBatchSize = 8
	editTheta     = 1e-4
	approxEps     = 0.1
	approxDelta   = 0.0
	// approxEvery makes every approxEvery-th request an anytime-tier
	// request for a uniformly drawn node, on every workload. A probe of
	// approx requests sent after the measured phase instead lasted under
	// a second, and a brief slowdown of the machine moved its median by
	// half between runs.
	approxEvery = 4
	// graphSeed fixes each workload's graph. The graph is the workload's
	// dataset, as the paper's are; the run seed draws the traffic. Graphs
	// drawn from the run seed differed so much (index size IQR 18% of the
	// median over five seeds) that no metric was steady across seeds.
	graphSeed = 1
)

var workloads = []spec{
	{
		name:      "web-uniform",
		family:    "web",
		n:         16384,
		indexK:    32,
		hubBudget: 48,
		k:         10,
		clients:   2,
		// 64 batches, about 7 s: a probe of 16 (about 2 s) or 32 batches
		// lands in one episode of the machine's speed drift (see
		// loadPieces), and its median spread by up to 0.28 and 0.21.
		probeEdits: 64,
	},
	{
		name:      "social-zipf",
		family:    "social",
		n:         4096,
		indexK:    32,
		hubBudget: 48,
		k:         10,
		// One client, so each request is timed on its own. With two, both
		// cores were busy with sub-millisecond cache hits and computed
		// queries split the worker budget by chance overlap: over ten
		// seeds its query p50 and p90 spread by 30% of their medians.
		// Pacing two clients open-loop at 30 or 60 requests/s was worse
		// (query p90 spread 47% and 69% over five seeds), as requests
		// waited behind computed queries by chance.
		clients: 1,
		// A fixed repeat share, not a Zipf draw over all nodes, sets the
		// cache-hit share: with Zipf draws the share rose with throughput
		// (closed-loop clients that hit the cache send more requests). At
		// 70% repeats the sub-millisecond hits set the geometric mean and
		// the throughput, and they moved with every slowdown of the machine
		// (spreads up to 0.22 and 0.25 of the median over ten seeds); at
		// 40% the computed queries, decide and BCA at work, weigh most.
		repeatShare: 0.4,
		zipf:        1,
		// At θ=1e-4 every origin of this graph is affected by every batch,
		// so a batch costs about a full index refresh (1 to 2.5 s). With 2
		// batches the probe's geometric mean spread by 0.15 to 0.18 of
		// itself over ten seeds.
		probeEdits: 4,
	},
	{
		name:      "web-edits",
		family:    "web",
		n:         16384,
		indexK:    32,
		hubBudget: 48,
		k:         10,
		clients:   1,
		// 19 batches in a 10 s run. At 1 batch/s the 9 batches' median
		// visibility spread by up to 0.26 of itself over ten seeds; the
		// daemon keeps up at 2/s (at most one batch waits), not at 4/s.
		editRate: 2,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (w spec) indexOptions() lbindex.Options {
	o := lbindex.DefaultOptions()
	o.K = w.indexK
	o.HubBudget = w.hubBudget
	return o
}

func (w spec) genGraph() (*graph.Graph, error) {
	switch w.family {
	case "web":
		return gen.WebGraph(w.n, graphSeed)
	case "social":
		return gen.SocialGraph(w.n, graphSeed)
	}
	return nil, fmt.Errorf("unknown graph family %q", w.family)
}

// request is one query the load generator sends.
type request struct {
	q      graph.NodeID
	approx bool
}

// inputs is everything a workload sends, generated from the graph and the
// run seed alone.
type inputs struct {
	// requests is the main-phase query stream; closed-loop clients take
	// the next request in order, so every run sends a prefix of it.
	requests []request
	// edits is the edit-batch stream, sent open-loop in order.
	edits [][]evolve.Edit
}

// maxRequests bounds the pre-generated query stream; a run that exhausts
// it stops early.
const maxRequests = 1 << 16

// makeInputs generates a workload's query and edit streams. The queries
// come from the run seed. The edit trace, like the graph, is fixed: a
// batch's maintenance cost is heavy-tailed (standalone on the web graph:
// median 178 ms, p90 750 ms, max 3.8 s over 40 batches), so traces drawn
// from the run seed made edit visibility swing by more than its median
// between seeds.
func (w spec) makeInputs(g *graph.Graph, seed int64, editBatches int) (*inputs, error) {
	strata, err := queryStrata(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	uniform := stratifiedUniform(strata, rng)
	pick := uniform
	if w.repeatShare > 0 {
		pick = repeating(stratifiedFresh(strata, rng), w.repeatShare, w.zipf, rng)
	}
	in := &inputs{requests: make([]request, maxRequests)}
	for i := range in.requests {
		if i%approxEvery == approxEvery-1 {
			in.requests[i] = request{q: uniform(), approx: true}
		} else {
			in.requests[i] = request{q: pick()}
		}
	}
	edits, err := makeEdits(g, rand.New(rand.NewSource(graphSeed)), editBatches)
	if err != nil {
		return nil, err
	}
	in.edits = edits
	return in, nil
}

// stratifiedUniform draws nodes uniformly, stratified by PageRank: every
// run of len(strata) draws takes one node from each stratum, in shuffled
// order. Query cost follows PageRank, so this keeps the cost mix of every
// run the same while each node stays equally likely.
func stratifiedUniform(strata [][]graph.NodeID, rng *rand.Rand) func() graph.NodeID {
	var order []int
	return func() graph.NodeID {
		if len(order) == 0 {
			order = rng.Perm(len(strata))
		}
		s := strata[order[0]]
		order = order[1:]
		return s[rng.Intn(len(s))]
	}
}

// stratifiedFresh draws nodes like stratifiedUniform but without
// replacement, so every draw is a node not drawn before (until a stratum
// runs out and is dealt again).
func stratifiedFresh(strata [][]graph.NodeID, rng *rand.Rand) func() graph.NodeID {
	decks := make([][]graph.NodeID, len(strata))
	var order []int
	return func() graph.NodeID {
		if len(order) == 0 {
			order = rng.Perm(len(strata))
		}
		i := order[0]
		order = order[1:]
		if len(decks[i]) == 0 {
			decks[i] = append([]graph.NodeID(nil), strata[i]...)
			rng.Shuffle(len(decks[i]), func(a, b int) { decks[i][a], decks[i][b] = decks[i][b], decks[i][a] })
		}
		q := decks[i][0]
		decks[i] = decks[i][1:]
		return q
	}
}

// repeating returns a draw that repeats an earlier draw — the r-th
// distinct node drawn (0-based) with weight (r+1)^-exponent — on exactly
// a share of its calls, spread evenly, and otherwise takes a fresh node.
// The share is exact, not drawn: the geometric mean of a mix of
// sub-millisecond cache hits and computed queries moves about five times
// as much as the hit share does, so a binomial share alone (±2 points over
// a run) moved it by ±9%.
func repeating(fresh func() graph.NodeID, share, exponent float64, rng *rand.Rand) func() graph.NodeID {
	var seen []graph.NodeID
	var cum []float64
	total := 0.0
	calls := 0
	return func() graph.NodeID {
		calls++
		if len(seen) > 0 && math.Floor(float64(calls)*share) > math.Floor(float64(calls-1)*share) {
			r := sort.SearchFloat64s(cum, rng.Float64()*total)
			return seen[min(r, len(seen)-1)]
		}
		q := fresh()
		seen = append(seen, q)
		total += math.Pow(float64(len(seen)), -exponent)
		cum = append(cum, total)
		return q
	}
}

// hotShare is the share of nodes, highest PageRank first, that are never
// queried. Their reverse top-k answers hold most of the graph: on the web
// graph the PageRank-rank 4 to 7 nodes answer 9.9k to 16.4k nodes and take
// 19 s to 66 s each with 1k to 4k exact fallbacks, while the median query
// takes about 10 ms. Drawn uniformly, such a node lands in roughly one run
// in three and stalls it past its whole measured phase, so no metric is
// steady; the rank-42 and rank-65 nodes already take under 0.7 s.
const hotShare = 0.01

// strataCount is the number of PageRank strata query draws are spread
// over.
const strataCount = 16

// queryStrata splits the queryable nodes — every node but the hotShare
// with the highest PageRank — into strataCount equal PageRank bands.
func queryStrata(g *graph.Graph) ([][]graph.NodeID, error) {
	pr, err := rwr.PageRank(g, rwr.DefaultParams())
	if err != nil {
		return nil, err
	}
	ids := make([]graph.NodeID, g.N())
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return pr.Vector[ids[a]] > pr.Vector[ids[b]] })
	nodes := ids[int(math.Ceil(hotShare*float64(len(ids)))):]
	strata := make([][]graph.NodeID, strataCount)
	for i := range strata {
		strata[i] = nodes[i*len(nodes)/strataCount : (i+1)*len(nodes)/strataCount]
	}
	return strata, nil
}

// editBatchesFor is the number of edit batches a run sends: the main-phase
// stream for its whole duration, or the fixed probe.
func (w spec) editBatchesFor(seconds float64) int {
	if w.editRate > 0 {
		return int(w.editRate*seconds) + 1
	}
	return w.probeEdits
}

// makeEdits generates batches of half inserts, half removes that commute:
// inserts add edges absent from the base graph and never touched again,
// removes delete base edges at most once and always leave the source at
// least one out-edge, so every batch is valid whatever order the server
// applies them in and no node ever goes dangling.
func makeEdits(g *graph.Graph, rng *rand.Rand, batches int) ([][]evolve.Edit, error) {
	n := g.N()
	type edge struct{ u, v graph.NodeID }
	touched := map[edge]bool{}
	removable := map[graph.NodeID]int{} // remaining removes allowed per source
	out := make([][]evolve.Edit, batches)
	for b := range out {
		batch := make([]evolve.Edit, 0, editBatchSize)
		for tries := 0; len(batch) < editBatchSize/2; tries++ {
			if tries > 1000*editBatchSize {
				return nil, fmt.Errorf("edit generator: no insertable edge found")
			}
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			e := edge{u, v}
			if u == v || touched[e] || g.HasEdge(u, v) {
				continue
			}
			touched[e] = true
			batch = append(batch, evolve.Edit{From: u, To: v})
		}
		for tries := 0; len(batch) < editBatchSize; tries++ {
			if tries > 1000*editBatchSize {
				return nil, fmt.Errorf("edit generator: no removable edge found")
			}
			u := graph.NodeID(rng.Intn(n))
			nbrs := g.OutNeighbors(u)
			left, seen := removable[u]
			if !seen {
				left = len(nbrs) - 1
			}
			if left <= 0 {
				continue
			}
			v := nbrs[rng.Intn(len(nbrs))]
			e := edge{u, v}
			if u == v || touched[e] {
				continue
			}
			touched[e] = true
			removable[u] = left - 1
			batch = append(batch, evolve.Edit{From: u, To: v, Remove: true})
		}
		out[b] = batch
	}
	return out, nil
}
