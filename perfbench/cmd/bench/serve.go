package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/perfbench/internal/inputs"
	"repro/perfbench/internal/prom"
	"repro/perfbench/internal/span"
)

// callers is the load generator's closed-loop concurrency: one caller
// per core of the benchmark machine (nproc 2), each on its own
// connection.
const callers = 2

// adminToken authenticates serve-retrain's feedback-loop admin calls.
const adminToken = "perfbench"

// call is one request the load generator made, kept raw and checked
// after the timed phase.
type call struct {
	caller int
	kind   string // "detect", "feedback" or "retrain"
	req    int    // request body index
	phase  int    // 0 warm-up, 1 timed, 2 timed with client spans
	start  time.Time
	end    time.Time
	status int
	resp   []byte
	net    time.Duration // retrain calls: end − start net of host steal
}

type client struct {
	hc   *http.Client
	base string
	// rec, when set, records a span around every call, under parent.
	rec    *span.Recorder
	parent int
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: callers,
			MaxConnsPerHost:     callers,
			DisableCompression:  true,
		},
	}}
}

func (c *client) do(method, path string, body []byte, admin bool) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if admin {
		req.Header.Set("Authorization", "Bearer "+adminToken)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call makes call cl, stamping its start and end.
func (c *client) call(cl *call, method, path string, body []byte, admin bool) error {
	var sp *span.Open
	if c.rec != nil {
		sp = c.rec.Start("client."+cl.kind, c.parent, int64(cl.req))
	}
	cl.start = time.Now()
	status, resp, err := c.do(method, path, body, admin)
	cl.end = time.Now()
	if sp != nil {
		sp.End(1)
	}
	cl.status, cl.resp = status, resp
	return err
}

// loadGen is the closed-loop load generator: it keeps every call it
// made, and the first error of a call that could not be made at all.
type loadGen struct {
	c     *client
	next  atomic.Int64
	mu    sync.Mutex
	calls []*call
	err   error
	// exhausted is set when a caller found every body already sent.
	exhausted atomic.Bool
}

// record keeps a finished call and reports whether it went through.
func (g *loadGen) record(cl *call, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls = append(g.calls, cl)
	if err != nil && g.err == nil {
		g.err = err
	}
	return err == nil
}

// aborted reports whether a call could not be made at all.
func (g *loadGen) aborted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

// drive runs the callers closed-loop: each sends the next unsent detect
// body until the deadline passes or all n bodies are sent; running out
// of bodies sets exhausted.
func (g *loadGen) drive(deadline time.Time, n, phase int, body func(int) ([]byte, error)) {
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(g.next.Add(1) - 1)
				if i >= n {
					g.exhausted.Store(true)
					return
				}
				b, err := body(i)
				cl := &call{caller: k, kind: "detect", req: i, phase: phase}
				if err == nil {
					err = g.c.call(cl, http.MethodPost, "/v1/detect", b, false)
				}
				if !g.record(cl, err) {
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// detectResponse is the /v1/detect response shape.
type detectResponse struct {
	Detections []struct {
		ItemID   string  `json:"item_id"`
		Score    float64 `json:"score"`
		Fraud    bool    `json:"fraud"`
		Filtered bool    `json:"filtered"`
	} `json:"detections"`
	ModelGeneration uint64 `json:"model_generation"`
}

// phase is one timed phase's measurements.
type phase struct {
	t0        time.Time
	wall      time.Duration
	net       time.Duration // wall net of host steal
	cpu       time.Duration
	items     int
	latencies []float64 // ms, detect calls
	windows   []float64 // items/s per 1 s window
	before    prom.Sample
	after     prom.Sample
}

// measure runs load between CPU and /metrics readings of the server.
func measure(srv *server, c *client, seconds float64, load func(deadline time.Time)) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = prom.Fetch(c.hc, srv.base+"/metrics"); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	h0 := readHost()
	ph.t0 = time.Now()
	load(ph.t0.Add(time.Duration(seconds * float64(time.Second))))
	ph.wall = time.Since(ph.t0)
	ph.net = netOfSteal(ph.wall, h0, readHost())
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.after, err = prom.Fetch(c.hc, srv.base+"/metrics"); err != nil {
		return nil, err
	}
	return ph, nil
}

// timedPhases runs the timed phase through load: the whole run length,
// or in a traced run half of it untraced and half with a span around
// every client call. It returns the untraced phase and the traced one
// (nil when not tracing).
func timedPhases(o *options, srv *server, c *client, load func(deadline time.Time, phase int)) (*phase, *phase, error) {
	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	ph, err := measure(srv, c, secs, func(d time.Time) { load(d, 1) })
	if err != nil || !o.trace {
		return ph, nil, err
	}
	root := o.rec.Start("client."+o.workload, 0, 0)
	c.rec, c.parent = o.rec, root.ID()
	tr, err := measure(srv, c, secs, func(d time.Time) { load(d, 2) })
	root.End(0)
	c.rec = nil
	return ph, tr, err
}

// detectStats fills a phase's item count (items answered with 200),
// latencies (every detect call) and per-second windows from its detect
// calls.
func (ph *phase) detectStats(calls []*call, id int) {
	t0 := ph.t0

	nwin := int(ph.wall/time.Second) + 1
	win := make([]float64, nwin)
	for _, cl := range calls {
		if cl.phase != id || cl.kind != "detect" {
			continue
		}
		n := 0
		if cl.status == http.StatusOK {
			n = inputs.RequestItems
		}
		ph.items += n
		ph.latencies = append(ph.latencies, float64(cl.end.Sub(cl.start))/float64(time.Millisecond))
		if w := int(cl.end.Sub(t0) / time.Second); w < nwin {
			win[w] += float64(n)
		}
	}
	// Only whole windows count.
	for w := 0; w < int(ph.wall/time.Second); w++ {
		ph.windows = append(ph.windows, win[w])
	}
}

// serveMetrics sets the end-to-end metrics every serve workload shares.
func (rep *report) serveMetrics(su *setupResult, ph *phase, maxRSS int64) {
	rep.set("setup_s", "s", median(su.setup))
	// Wall-clock figures are net of host steal: the phase's share of
	// withheld CPU time stretches every request alike.
	given := ph.net.Seconds() / ph.wall.Seconds()
	rep.set("throughput_items_per_s", "items/s", float64(ph.items)/ph.net.Seconds())
	rep.set("latency_p50_ms", "ms", given*median(ph.latencies))
	rep.set("cpu_us_per_item", "us", ph.cpu.Seconds()*1e6/float64(ph.items))
	rep.set("peak_rss_mb", "MiB", float64(maxRSS)/(1<<20))
	rep.details["setup_s"] = su.setup
	rep.details["setup_wall_s"] = su.raw
	rep.details["timed_net_s"] = ph.net.Seconds()
	rep.details["wall_throughput_items_per_s"] = float64(ph.items) / ph.wall.Seconds()
	rep.details["wall_latency_p50_ms"] = median(ph.latencies)
	rep.details["boot_s"] = su.boot
	rep.details["timed_wall_s"] = ph.wall.Seconds()
	rep.details["timed_items"] = ph.items
	rep.details["requests"] = len(ph.latencies)
	rep.details["window_items_per_s"] = ph.windows
	rep.details["window_median_items_per_s"] = median(ph.windows)
	if name, v, ok := tailQuantile(ph.latencies); ok {
		rep.details["latency_"+name+"_ms"] = v
	}
	rep.details["server_cores_busy"] = ph.cpu.Seconds() / ph.wall.Seconds()
}

// serveFresh sends distinct items that never repeat, RequestItems per
// request, from two closed-loop callers to catsserve with default
// flags. Running out of generated items before the deadline fails the
// run: the timed phase would be shorter than its parent's.
func serveFresh(o *options) (*report, *checker, error) {
	rep := newReport()
	if _, err := inputs.WriteTrain(o.path("train.jsonl"), o.seed); err != nil {
		return nil, nil, err
	}
	crawl, bodies, err := inputs.WriteFresh(o.work, o.seed)
	if err != nil {
		return nil, nil, err
	}
	files := make([]*os.File, len(bodies.Files))
	for i, p := range bodies.Files {
		if files[i], err = os.Open(p); err != nil {
			return nil, nil, err
		}
		defer files[i].Close()
	}
	body := func(i int) ([]byte, error) {
		b := make([]byte, bodies.Len[i])
		_, err := files[bodies.File[i]].ReadAt(b, bodies.Off[i])
		return b, err
	}
	n := setups
	if o.trace {
		n = 1
	}
	su, err := setUp(o, n, []string{})
	if err != nil {
		return nil, nil, err
	}
	srv := su.srv
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	chk, err := newChecker(crawl.Truth, crawl.Samples, su.snapshot)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base)

	g := &loadGen{c: c}
	// Warm-up: one second of traffic before timing.
	g.drive(time.Now().Add(time.Second), len(bodies.Off), 0, body)
	if g.err != nil {
		return nil, nil, g.err
	}
	ph, tr, err := timedPhases(o, srv, c, func(deadline time.Time, phase int) {
		g.drive(deadline, len(bodies.Off), phase, body)
	})
	if err != nil {
		return nil, nil, err
	}
	if g.err != nil {
		return nil, nil, g.err
	}
	if g.exhausted.Load() {
		return nil, nil, fmt.Errorf("serve-fresh sent all %d generated items before the deadline; raise inputs.FreshParts",
			len(crawl.Truth))
	}
	u, err := srv.stop()
	srv = nil
	if err != nil {
		return nil, nil, err
	}
	calls := g.calls
	ph.detectStats(calls, 1)
	if o.trace {
		tr.detectStats(calls, 2)
		err = rep.layers(o, su.snapshot, serveLayers(ph, tr, su.boot))
	} else {
		rep.serveMetrics(su, ph, u.maxRSS)
		rep.set("retrain_s", "s", median(su.train))
	}
	if err != nil {
		return nil, nil, err
	}
	// Checks, after the timed phase. A request answered with another
	// status than 200, or with a body that does not decode, is a failed
	// operation for each of its items; the other answers are checked.
	seen := map[string]bool{}
	reported := map[string]bool{}
	var gen uint64
	for _, cl := range calls {
		ids := crawl.Truth[cl.req*inputs.RequestItems : (cl.req+1)*inputs.RequestItems]
		var resp detectResponse
		if cl.status != http.StatusOK || json.Unmarshal(cl.resp, &resp) != nil {
			rep.failed += inputs.RequestItems
			continue
		}
		if gen == 0 {
			gen = resp.ModelGeneration
			chk.refGen = gen
		}
		if resp.ModelGeneration != gen {
			chk.fail("detect request %d: generation %d, server booted with %d", cl.req, resp.ModelGeneration, gen)
		}
		if len(resp.Detections) != len(ids) {
			chk.fail("detect request %d: %d detections for %d items", cl.req, len(resp.Detections), len(ids))
			continue
		}
		for j, d := range resp.Detections {
			if d.ItemID != ids[j].ID {
				chk.fail("detect request %d: detection %d is %q, want %q", cl.req, j, d.ItemID, ids[j].ID)
			}
			if seen[d.ItemID] {
				chk.fail("item %s answered twice", d.ItemID)
			}
			seen[d.ItemID] = true
			reported[d.ItemID] = d.Fraud
			chk.item(verdict{id: d.ItemID, score: d.Score, fraud: d.Fraud, filtered: d.Filtered, gen: resp.ModelGeneration})
		}
	}
	// Bodies are sent in order, so the calls made cover the first
	// len(calls) bodies.
	rep.attempted = len(calls) * inputs.RequestItems
	p, r, f := chk.quality("serve-fresh", reported)
	rep.details["quality"] = map[string]float64{"precision": p, "recall": r, "f1": f}
	rep.details["makeup"] = makeup(crawl.Truth[:rep.attempted])
	rep.details["items_generated"] = len(crawl.Truth)
	return rep, chk, nil
}

// Per round of serve-retrain, caller 0 sends retrainEvery detect
// requests before posting feedback and forcing a retrain cycle, and
// caller 1 sends besideRetrain detect requests meanwhile — about as
// many as fit in the round, so reads run beside the retrain.
const (
	retrainEvery  = 50
	besideRetrain = 100
)

// serveRetrain runs catsserve with the drift loop on: both callers send
// detect requests for the hot pool, and caller 0 also posts labeled
// feedback and forces a retrain cycle every retrainEvery requests, in
// rounds of fixed work.
func serveRetrain(o *options) (*report, *checker, error) {
	rep := newReport()
	if _, err := inputs.WriteTrain(o.path("train.jsonl"), o.seed); err != nil {
		return nil, nil, err
	}
	pool, err := inputs.HotPool(o.path("pool.jsonl"), o.seed)
	if err != nil {
		return nil, nil, err
	}
	fb, err := inputs.Feedback(o.path("feedback.jsonl"), o.seed)
	if err != nil {
		return nil, nil, err
	}
	truth := make([]inputs.Truth, len(pool))
	for i := range pool {
		truth[i] = inputs.Truth{ID: pool[i].ID, Fraud: pool[i].Label.IsFraud(), Sales: pool[i].SalesVolume, Comments: len(pool[i].Comments)}
	}
	// Detect bodies: RequestItems distinct pool items each, drawn from a
	// seeded stream; feedback bodies: the window fill, then posts.
	rng := rand.New(rand.NewSource(o.seed))
	reqIDs := make([][]string, inputs.PoolBodies)
	reqBodies := make([][]byte, inputs.PoolBodies)
	for i := range reqBodies {
		var items []cats.Item
		for _, k := range rng.Perm(len(pool))[:inputs.RequestItems] {
			it := pool[k]
			it.Label = cats.Normal
			items = append(items, it)
			reqIDs[i] = append(reqIDs[i], it.ID)
		}
		if reqBodies[i], err = json.Marshal(map[string]any{"items": items}); err != nil {
			return nil, nil, err
		}
	}
	type fbEntry struct {
		Item  cats.Item `json:"item"`
		Fraud bool      `json:"fraud"`
	}
	feedbackBody := func(items []cats.Item) []byte {
		entries := make([]fbEntry, len(items))
		for i := range items {
			entries[i] = fbEntry{Item: items[i], Fraud: items[i].Label.IsFraud()}
		}
		b, _ := json.Marshal(map[string]any{"feedback": entries})
		return b
	}
	var fill [][]byte
	for lo := 0; lo < inputs.Window; lo += 256 {
		fill = append(fill, feedbackBody(fb[lo:lo+256]))
	}
	spare := fb[inputs.Window:]
	var posts [][]byte
	for lo := 0; lo+inputs.FeedbackPost <= len(spare); lo += inputs.FeedbackPost {
		posts = append(posts, feedbackBody(spare[lo:lo+inputs.FeedbackPost]))
	}

	n := setups
	if o.trace {
		n = 1
	}
	su, err := setUp(o, n, []string{"-admin-token", adminToken,
		"-retrain-interval", "1000h", "-retrain-min-f1-gain", "-1"})
	if err != nil {
		return nil, nil, err
	}
	srv := su.srv
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	chk, err := newChecker(truth, pool, su.snapshot)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base)
	for i, b := range fill {
		if st, resp, err := c.do(http.MethodPost, "/v1/feedback", b, false); err != nil || st != http.StatusOK {
			return nil, nil, fmt.Errorf("window fill post %d: %d %s %v", i, st, resp, err)
		}
	}
	st, resp, err := c.do(http.MethodGet, "/admin/tenants", nil, true)
	if err != nil || st != http.StatusOK {
		return nil, nil, fmt.Errorf("admin tenants: %d %s %v", st, resp, err)
	}
	var tenants struct {
		Tenants []struct {
			Generation uint64 `json:"generation"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(resp, &tenants); err != nil || len(tenants.Tenants) != 1 {
		return nil, nil, fmt.Errorf("admin tenants: %s %v", resp, err)
	}
	gen0 := tenants.Tenants[0].Generation
	chk.refGen = gen0

	g := &loadGen{c: c}
	var nextReq [callers]int
	var posted int
	detect := func(k, phase int) bool {
		i := (nextReq[k]*callers + k) % len(reqBodies)
		nextReq[k]++
		cl := &call{caller: k, kind: "detect", req: i, phase: phase}
		return g.record(cl, c.call(cl, http.MethodPost, "/v1/detect", reqBodies[i], false))
	}
	// rounds runs whole rounds until one ends after the deadline. In a
	// round caller 0 sends retrainEvery detects, posts feedback and
	// forces a retrain cycle, while caller 1 sends besideRetrain detects;
	// the round ends when both are done, so every round does the same
	// work whatever the machine's speed.
	rounds := func(deadline time.Time, phase int) {
		for ok := true; ok && !g.aborted(); ok = time.Now().Before(deadline) {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < besideRetrain && detect(1, phase); j++ {
				}
			}()
			sent := true
			for j := 0; j < retrainEvery && sent; j++ {
				sent = detect(0, phase)
			}
			if sent {
				cl := &call{caller: 0, kind: "feedback", req: posted % len(posts), phase: phase}
				posted++
				sent = g.record(cl, c.call(cl, http.MethodPost, "/v1/feedback", posts[cl.req], false))
			}
			if sent {
				cl := &call{caller: 0, kind: "retrain", phase: phase}
				h0 := readHost()
				err := c.call(cl, http.MethodPost, "/admin/retrain", []byte(`{}`), true)
				cl.net = netOfSteal(cl.end.Sub(cl.start), h0, readHost())
				g.record(cl, err)
			}
			wg.Wait()
		}
	}
	// Warm-up: one round, which also promotes once.
	rounds(time.Now(), 0)
	if g.err != nil {
		return nil, nil, g.err
	}
	ph, tr, err := timedPhases(o, srv, c, rounds)
	if err != nil {
		return nil, nil, err
	}
	if g.err != nil {
		return nil, nil, g.err
	}
	st, trResp, err := c.do(http.MethodGet, "/admin/trainer", nil, true)
	if err != nil || st != http.StatusOK {
		return nil, nil, fmt.Errorf("admin trainer: %d %s %v", st, trResp, err)
	}
	u, err := srv.stop()
	srv = nil
	if err != nil {
		return nil, nil, err
	}
	calls := g.calls
	ph.detectStats(calls, 1)
	var retrains, rawRetrains []float64
	for _, cl := range calls {
		if cl.phase == 1 && cl.kind == "retrain" {
			retrains = append(retrains, cl.net.Seconds())
			rawRetrains = append(rawRetrains, cl.end.Sub(cl.start).Seconds())
		}
	}
	if o.trace {
		tr.detectStats(calls, 2)
		if err := rep.layers(o, su.snapshot, serveLayers(ph, tr, su.boot)); err != nil {
			return nil, nil, err
		}
	} else {
		rep.serveMetrics(su, ph, u.maxRSS)
		rep.set("retrain_s", "s", median(retrains))
	}
	for _, cl := range calls {
		rep.attempted += cl.ops()
	}
	rep.details["retrain_s"] = retrains
	rep.details["retrain_wall_s"] = rawRetrains
	rep.details["makeup"] = makeup(truth)

	checkRetrain(chk, calls, reqIDs, gen0, trResp, rep)
	return rep, chk, nil
}

// ops is how many operations a call makes: one per item of a detect
// request, one for any other call.
func (cl *call) ops() int {
	if cl.kind == "detect" {
		return inputs.RequestItems
	}
	return 1
}

// checkRetrain checks serve-retrain's answers and the trainer's record.
// A call answered with another status than 200, or with a body that
// does not decode, counts its operations as failed; of the others:
// every forced cycle promoted exactly one generation up; every answer
// names a generation published no later than the answer, never going
// back for one caller; one item scores the same under one generation;
// and the trainer reports exactly the forced cycles.
func checkRetrain(chk *checker, calls []*call, reqIDs [][]string, gen0 uint64, trainer []byte, rep *report) {
	type decision struct {
		Outcome     string `json:"outcome"`
		ChampionGen uint64 `json:"champion_generation"`
		PromotedGen uint64 `json:"promoted_generation"`
	}
	published := map[uint64]time.Time{gen0: {}}
	gen := gen0
	forced := 0
	failed := map[*call]bool{}
	for _, cl := range calls {
		if cl.status != http.StatusOK {
			failed[cl] = true
			continue
		}
		switch cl.kind {
		case "retrain":
			var r struct {
				Decisions []decision `json:"decisions"`
			}
			if err := json.Unmarshal(cl.resp, &r); err != nil {
				failed[cl] = true
				continue
			}
			forced++
			if len(r.Decisions) != 1 {
				chk.fail("retrain: %d decisions: %s", len(r.Decisions), cl.resp)
				continue
			}
			d := r.Decisions[0]
			if d.Outcome != "promoted" || d.ChampionGen != gen || d.PromotedGen != gen+1 {
				chk.fail("retrain from generation %d: outcome %s, champion %d, promoted %d",
					gen, d.Outcome, d.ChampionGen, d.PromotedGen)
			}
			gen = d.PromotedGen
			published[gen] = cl.start
		case "feedback":
			var r struct {
				Accepted int `json:"accepted"`
			}
			if err := json.Unmarshal(cl.resp, &r); err != nil {
				failed[cl] = true
			} else if r.Accepted != inputs.FeedbackPost {
				chk.fail("feedback: %s", cl.resp)
			}
		}
	}
	lastGen := [callers]uint64{}
	scoreAt := map[string]float64{}
	reported := map[string]bool{}
	detects := 0
	for _, cl := range calls {
		if cl.kind != "detect" || failed[cl] {
			continue
		}
		var resp detectResponse
		if err := json.Unmarshal(cl.resp, &resp); err != nil {
			failed[cl] = true
			continue
		}
		detects++
		g := resp.ModelGeneration
		pub, ok := published[g]
		switch {
		case !ok:
			chk.fail("detect answered by generation %d, never published", g)
		case cl.end.Before(pub):
			chk.fail("detect answered by generation %d before its retrain began", g)
		}
		if g < lastGen[cl.caller] {
			chk.fail("caller %d saw generation %d after %d", cl.caller, g, lastGen[cl.caller])
		}
		lastGen[cl.caller] = g
		ids := reqIDs[cl.req]
		if len(resp.Detections) != len(ids) {
			chk.fail("detect: %d detections for %d items", len(resp.Detections), len(ids))
			continue
		}
		for j, d := range resp.Detections {
			if d.ItemID != ids[j] {
				chk.fail("detect: detection %d is %q, want %q", j, d.ItemID, ids[j])
			}
			key := fmt.Sprintf("%s@%d", d.ItemID, g)
			if s, ok := scoreAt[key]; ok && s != d.Score {
				chk.fail("%s scored %v and %v under generation %d", d.ItemID, s, d.Score, g)
			}
			scoreAt[key] = d.Score
			reported[key] = d.Fraud
			chk.item(verdict{id: d.ItemID, score: d.Score, fraud: d.Fraud, filtered: d.Filtered, gen: g})
		}
	}
	p, r, f := chk.quality("serve-retrain", reported)
	rep.details["quality"] = map[string]float64{"precision": p, "recall": r, "f1": f}
	for cl := range failed {
		rep.failed += cl.ops()
	}
	rep.details["forced_cycles"] = forced
	rep.details["detect_requests"] = detects

	var st struct {
		Tenants []struct {
			WindowSize int    `json:"window_size"`
			Cycles     uint64 `json:"cycles"`
			Promotions uint64 `json:"promotions"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(trainer, &st); err != nil || len(st.Tenants) != 1 {
		chk.fail("admin trainer: %s %v", trainer, err)
		return
	}
	t := st.Tenants[0]
	if t.Cycles != uint64(forced) || t.Promotions != uint64(forced) || t.WindowSize != inputs.Window {
		chk.fail("trainer reports %d cycles, %d promotions, window %d; forced %d cycles on a %d window",
			t.Cycles, t.Promotions, t.WindowSize, forced, inputs.Window)
	}
}
