package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/serve"
)

// daemon is one serve.Server mounted on a loopback listener.
type daemon struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	done    chan struct{} // closed when the HTTP serve loop has returned
	journal string        // journal directory of a durable daemon, else ""
	closing sync.Once
}

// startDaemon serves (g, idx) on a loopback port and returns once the
// daemon has answered its first request. A workload with an edit stream
// gets a durable daemon whose journal is fsync'd on every batch, in a
// fresh directory under workdir.
func startDaemon(w spec, g *graph.Graph, idx *lbindex.Index, cfg serve.Config, workdir string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	var err error
	if w.editRate > 0 {
		if d.journal, err = os.MkdirTemp(workdir, "journal-"); err != nil {
			return nil, err
		}
		d.srv, _, err = serve.NewDurable(g, idx, cfg, serve.DurabilityConfig{JournalPath: filepath.Join(d.journal, "edits.wal")})
	} else {
		d.srv, err = serve.New(g, idx, cfg)
	}
	if err != nil {
		d.removeJournal()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		d.removeJournal()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener, waits for the serve loop, drains the server's
// maintenance pipeline and removes the journal. Later calls do nothing.
func (d *daemon) close() {
	d.closing.Do(func() {
		_ = d.http.Close()
		<-d.done
		d.srv.Close()
		d.removeJournal()
	})
}

func (d *daemon) removeJournal() {
	if d.journal != "" {
		_ = os.RemoveAll(d.journal)
	}
}

// fixture is one set-up workload: the graph, the index as built, and the
// daemon serving them.
type fixture struct {
	g     *graph.Graph
	idx   *lbindex.Index
	d     *daemon
	setup time.Duration
}

// setUp generates the graph, builds the index and starts the daemon; the
// time it takes is the setup_s metric.
func setUp(w spec, workdir string) (*fixture, error) {
	start := time.Now()
	g, err := w.genGraph()
	if err != nil {
		return nil, err
	}
	idx, _, err := lbindex.Build(g, w.indexOptions())
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(w, g, idx, serve.Config{}, workdir)
	if err != nil {
		return nil, err
	}
	return &fixture{g: g, idx: idx, d: d, setup: time.Since(start)}, nil
}

// reply is one completed query request.
type reply struct {
	seq    int // position in the request stream
	req    request
	at     time.Time // when it was sent
	lat    time.Duration
	status int
	cache  string
	body   []byte
	err    error
}

// editReply is one completed edit batch.
type editReply struct {
	batch int
	due   time.Duration // scheduled send time, offset from the start of its piece or probe
	late  time.Duration // how late the generator sent it
	done  time.Duration // reply received, offset from the same start
	// doneAt is when the reply was received; from then on the batch's
	// epoch is visible.
	doneAt time.Time
	// pending is the server's unapplied batch count when this one was due.
	pending uint64
	status  int
	resp    serve.EditsResponse
	err     error
}

// visible is the edit-visibility latency: due time to wait:true reply.
func (e editReply) visible() time.Duration { return e.done - e.due }

// phase is the record of one load phase.
type phase struct {
	// wall is the time the query clients ran: it does not count the
	// gaps between pieces of the phase, nor the wait for edit replies
	// still outstanding when the clients stopped.
	wall    time.Duration
	replies []reply
	edits   []editReply
}

func newClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// query sends one reverse top-k request and reads the whole body.
func query(c *http.Client, base string, r request, k int) (status int, cache string, body []byte, err error) {
	url := fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", base, r.q, k)
	if r.approx {
		url += fmt.Sprintf("&mode=approx&eps=%g&delta=%g", approxEps, approxDelta)
	}
	resp, err := c.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// Without an edit stream the measured phase is cut into loadPieces pieces
// of equal length, with a pause of pieceGap times a piece's length between
// two pieces. The machine's speed drifts by up to a third in episodes of
// ten to twenty seconds (a fixed single-thread loop ran 52 to 81 times a
// second, with no stolen time), so a contiguous 10 s phase lands in one
// episode. Spread over about 22 s, a run samples more than one: on that
// speed trace the simulated spread of ten runs fell from 0.17 to 0.11 of
// the median. An edit stream stays contiguous, since its batches queue
// behind each other: cut into pieces of two batches each (at 1 batch/s),
// the median visibility of web-edits' eight fixed batches spread by 25% of
// its median over ten seeds, against 5% to 7% contiguous.
const (
	loadPieces = 4
	pieceGap   = 1.6
)

// runLoad drives the main phase, in pieces for a workload without an edit
// stream, each piece taking the query stream up where the last one
// stopped. Between two pieces it calls between with the replies so far,
// then waits out the rest of the gap; the daemon keeps its state
// throughout.
func runLoad(w spec, d *daemon, in *inputs, seconds float64, between func([]reply)) phase {
	pieces := loadPieces
	if w.editRate > 0 {
		pieces = 1
	}
	piece := seconds / float64(pieces)
	gap := time.Duration(pieceGap * piece * float64(time.Second))
	var p phase
	nextReq, nextBatch := 0, 0
	for i := range pieces {
		if i > 0 {
			start := time.Now()
			between(p.replies)
			time.Sleep(gap - time.Since(start))
		}
		q := runPiece(w, d, in, nextReq, nextBatch, piece)
		p.wall += q.wall
		for _, r := range q.replies {
			nextReq = max(nextReq, r.seq+1)
		}
		nextBatch += len(q.edits)
		p.replies = append(p.replies, q.replies...)
		p.edits = append(p.edits, q.edits...)
	}
	return p
}

// runPiece drives one piece of the main phase: closed-loop clients take
// requests in stream order from firstReq until the deadline, and, for a
// workload with an edit rate, an open-loop generator sends edit batches
// from firstBatch on schedule beside them.
func runPiece(w spec, d *daemon, in *inputs, firstReq, firstBatch int, seconds float64) phase {
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	var next atomic.Int64
	next.Store(int64(firstReq))
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var mine []reply
			for {
				i := int(next.Add(1) - 1)
				r := reply{seq: i, at: time.Now()}
				if i >= len(in.requests) || r.at.Sub(start) >= deadline {
					break
				}
				r.req = in.requests[i]
				r.status, r.cache, r.body, r.err = query(client, d.url, r.req, w.k)
				r.lat = time.Since(r.at)
				mine = append(mine, r)
			}
			mu.Lock()
			p.replies = append(p.replies, mine...)
			mu.Unlock()
		}()
	}
	var edits chan []editReply
	if w.editRate > 0 {
		edits = make(chan []editReply, 1)
		go func() { edits <- sendEdits(d, in.edits, firstBatch, w.editRate, deadline, start) }()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if edits != nil {
		p.edits = <-edits
	}
	sort.Slice(p.replies, func(i, j int) bool { return p.replies[i].at.Before(p.replies[j].at) })
	return p
}

// sendEdits sends edit batches open-loop from batches[first] on: the i-th
// of them is due at start + (i+1)/rate, so the first interval serves the
// snapshot as it stands, and is sent then whether or not earlier batches
// have been answered. It stops scheduling at the deadline (or when the
// batches run out) and returns once every sent batch is answered.
func sendEdits(d *daemon, batches [][]evolve.Edit, first int, rate float64, deadline time.Duration, start time.Time) []editReply {
	client := newClient()
	defer client.CloseIdleConnections()
	var out []editReply
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, batch := range batches[min(first, len(batches)):] {
		due := time.Duration(float64(i+1) / rate * float64(time.Second))
		if due >= deadline {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		e := editReply{batch: first + i, due: due, late: time.Since(start) - due, pending: d.srv.Stats().PendingEdits}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.status, e.resp, e.err = postEdits(client, d.url, batch)
			e.doneAt = time.Now()
			e.done = e.doneAt.Sub(start)
			mu.Lock()
			out = append(out, e)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].batch < out[j].batch })
	return out
}

func postEdits(c *http.Client, base string, batch []evolve.Edit) (int, serve.EditsResponse, error) {
	req := serve.EditsRequest{Theta: editTheta, Wait: true}
	for _, e := range batch {
		req.Edits = append(req.Edits, serve.EditJSON{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, serve.EditsResponse{}, err
	}
	resp, err := c.Post(base+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, serve.EditsResponse{}, err
	}
	defer resp.Body.Close()
	var er serve.EditsResponse
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&er)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, er, err
}

// runEditProbe sends the edit probe one batch at a time, with no reads
// beside it: each batch is due when the previous one is answered and a
// garbage collection has run. Every batch publishes a new snapshot (on the
// social graph a whole new index), and without the collection a batch
// took 1.1 or 1.5 s by whether a cycle fell inside it.
func runEditProbe(d *daemon, batches [][]evolve.Edit) []editReply {
	client := newClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	out := make([]editReply, 0, len(batches))
	for i, batch := range batches {
		runtime.GC()
		e := editReply{batch: i, due: time.Since(start)}
		e.status, e.resp, e.err = postEdits(client, d.url, batch)
		e.doneAt = time.Now()
		e.done = e.doneAt.Sub(start)
		out = append(out, e)
	}
	return out
}
