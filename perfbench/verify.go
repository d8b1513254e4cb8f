package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/serve"
)

// verdict is the outcome of the correctness gate over one run.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 10 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

type answerKey struct {
	q     graph.NodeID
	epoch uint64
}

// snapshots returns a view per served epoch. Epoch 1 is the pair as built;
// later epochs are rebuilt by replaying the acknowledged edit batches, in
// watermark order, through a second server over a clone of the same
// index. The maintenance pipeline is deterministic, so the replica
// publishes the same snapshot at every epoch.
func snapshots(g *graph.Graph, idx *lbindex.Index, batches [][]evolve.Edit, edits []editReply, upTo uint64) (map[uint64]*core.View, error) {
	v1, err := core.NewView(g, idx)
	if err != nil {
		return nil, err
	}
	views := map[uint64]*core.View{1: v1}
	if upTo <= 1 {
		return views, nil
	}
	byWM := append([]editReply(nil), edits...)
	sort.Slice(byWM, func(i, j int) bool { return byWM[i].resp.Watermark < byWM[j].resp.Watermark })
	replica, err := serve.New(g, idx.Clone(), serve.Config{})
	if err != nil {
		return nil, err
	}
	defer replica.Close()
	for _, e := range byWM {
		if e.status != http.StatusOK {
			continue
		}
		_, epoch, err := replica.ApplyEdits(batches[e.batch], editTheta)
		if err != nil {
			return nil, fmt.Errorf("replaying batch %d: %w", e.batch, err)
		}
		views[epoch] = replica.Store().Current().View
		if epoch >= upTo {
			break
		}
	}
	return views, nil
}

// check runs the correctness gate over a run's replies, outside the timed
// window. known holds scalar answers already computed, by (node, epoch).
//   - every exact body is byte-equal to the body built from a scalar
//     View.Query on the snapshot of the epoch it reports;
//   - every approx answer satisfies guaranteed ⊆ exact ⊆ guaranteed ∪ maybe;
//   - no answer comes from an epoch older than an edit batch already
//     reported visible when the request was sent;
//   - every edit batch is applied and publishes the epoch after its
//     watermark.
func check(w spec, g *graph.Graph, idx *lbindex.Index, in *inputs, replies []reply, edits []editReply, known map[answerKey][]graph.NodeID) (verdict, error) {
	var v verdict
	for _, e := range edits {
		v.attempted++
		switch {
		case e.err != nil:
			v.fail("edit batch %d: %v", e.batch, e.err)
		case e.status != http.StatusOK:
			v.fail("edit batch %d: status %d", e.batch, e.status)
		case e.resp.Epoch != e.resp.Watermark+1:
			v.fail("edit batch %d: watermark %d published epoch %d", e.batch, e.resp.Watermark, e.resp.Epoch)
		}
	}

	type parsed struct {
		r     reply
		epoch uint64
		exact *serve.QueryResponse
		apx   *serve.ApproxQueryResponse
	}
	var ok []parsed
	maxEpoch := uint64(1)
	for _, r := range replies {
		v.attempted++
		if r.err != nil || r.status != http.StatusOK {
			v.fail("q=%d approx=%v: status %d err %v", r.req.q, r.req.approx, r.status, r.err)
			continue
		}
		p := parsed{r: r}
		var err error
		if r.req.approx {
			p.apx = &serve.ApproxQueryResponse{}
			err = json.Unmarshal(r.body, p.apx)
			p.epoch = p.apx.Epoch
		} else {
			p.exact = &serve.QueryResponse{}
			err = json.Unmarshal(r.body, p.exact)
			p.epoch = p.exact.Epoch
		}
		if err != nil {
			v.fail("q=%d: malformed body: %v", r.req.q, err)
			continue
		}
		maxEpoch = max(maxEpoch, p.epoch)
		ok = append(ok, p)
	}

	views, err := snapshots(g, idx, in.edits, edits, maxEpoch)
	if err != nil {
		return v, err
	}
	want := map[answerKey][]graph.NodeID{}
	for _, p := range ok {
		key := answerKey{p.r.req.q, p.epoch}
		want[key] = known[key]
	}
	if err := exactAnswers(views, w.k, want); err != nil {
		return v, err
	}

	// Edit batches are few, so a scan of them per reply is cheap.
	for _, p := range ok {
		r := p.r
		for _, e := range edits {
			if e.status == http.StatusOK && e.doneAt.Before(r.at) && e.resp.Epoch > p.epoch {
				v.fail("q=%d answered from epoch %d after epoch %d was visible", r.req.q, p.epoch, e.resp.Epoch)
				break
			}
		}
		exact, known := want[answerKey{r.req.q, p.epoch}]
		if !known || views[p.epoch] == nil {
			v.fail("q=%d: no snapshot for epoch %d", r.req.q, p.epoch)
			continue
		}
		if p.exact != nil {
			body, err := json.Marshal(serve.QueryResponse{Query: r.req.q, K: w.k, Epoch: p.epoch, Count: len(exact), Results: exact})
			if err != nil {
				return v, err
			}
			if !bytes.Equal(body, r.body) {
				v.fail("q=%d epoch %d: body %s, scalar query gives %s", r.req.q, p.epoch, r.body, body)
			}
			continue
		}
		a := p.apx
		if a.Query != r.req.q || a.K != w.k || !contains(exact, a.Results) || !contains(append(append([]graph.NodeID(nil), a.Results...), a.Maybe...), exact) {
			v.fail("q=%d epoch %d: approx guaranteed %v maybe %v vs exact %v", r.req.q, p.epoch, a.Results, a.Maybe, exact)
		}
	}
	return v, nil
}

// exactAnswers fills the keys of want that have no answer yet with scalar
// View.Query answers, computed on GOMAXPROCS goroutines with one worker
// each.
func exactAnswers(views map[uint64]*core.View, k int, want map[answerKey][]graph.NodeID) error {
	keys := make([]answerKey, 0, len(want))
	for key, ans := range want {
		if ans == nil && views[key.epoch] != nil {
			keys = append(keys, key)
		}
	}
	results := make([][]graph.NodeID, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(keys); j = int(next.Add(1) - 1) {
				res, _, err := views[keys[j].epoch].Query(keys[j].q, k, 1)
				if res == nil {
					res = []graph.NodeID{}
				}
				results[j], errs[j] = res, err
			}
		}()
	}
	wg.Wait()
	for j, key := range keys {
		if errs[j] != nil {
			return fmt.Errorf("scalar query q=%d epoch %d: %w", key.q, key.epoch, errs[j])
		}
		want[key] = results[j]
	}
	return nil
}

// contains reports whether every element of sub is in set.
func contains(set, sub []graph.NodeID) bool {
	in := make(map[graph.NodeID]bool, len(set))
	for _, u := range set {
		in[u] = true
	}
	for _, u := range sub {
		if !in[u] {
			return false
		}
	}
	return true
}
