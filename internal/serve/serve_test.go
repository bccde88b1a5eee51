package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// testHarness bundles an engine with an instrumented solver behind a test
// HTTP server. The solver counts invocations (the coalescing assertion),
// optionally blocks on a gate until the test releases it, and publishes a
// couple of bound improvements for the SSE tests.
type testHarness struct {
	srv     *serve.Server
	ts      *httptest.Server
	calls   atomic.Int64
	gate    chan struct{} // nil = no gating; else solves block until closed
	started chan struct{} // closed when the first gated solve begins
	delay   time.Duration
}

func newHarness(t *testing.T, workers int, cfg serve.Config, gated bool, delay time.Duration) *testHarness {
	t.Helper()
	h := &testHarness{delay: delay}
	if gated {
		h.gate = make(chan struct{})
		h.started = make(chan struct{})
	}
	var startOnce sync.Once
	solver := sched.NewSolver("probe",
		sched.SolverCaps{Kinds: []sched.Kind{sched.Identical}, Guarantee: "none", Priority: 1},
		func(ctx context.Context, in *sched.Instance, opt sched.SolveOptions) (sched.Result, error) {
			h.calls.Add(1)
			if opt.Bounds != nil {
				opt.Bounds.PublishUpper(float64(10 * in.N))
				opt.Bounds.PublishLower(1)
			}
			if h.gate != nil {
				startOnce.Do(func() { close(h.started) })
				select {
				case <-h.gate:
				case <-ctx.Done():
					return sched.Result{}, ctx.Err()
				}
			}
			if h.delay > 0 {
				select {
				case <-time.After(h.delay):
				case <-ctx.Done():
					return sched.Result{}, ctx.Err()
				}
			}
			sch := &sched.Schedule{Assign: make([]int, in.N)}
			if opt.Bounds != nil {
				opt.Bounds.PublishUpper(float64(in.N))
			}
			return sched.Result{Algorithm: "probe", Schedule: sch, Makespan: float64(in.N), LowerBound: 1}, nil
		})
	reg := sched.NewRegistry()
	if err := reg.Register(solver); err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(sched.WithRegistry(reg), sched.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	h.srv = serve.New(eng, cfg)
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(h.ts.Close)
	return h
}

// instanceBody builds a /v1/solve request body for an identical-machines
// instance with n unit jobs (n also distinguishes instances: different n →
// different fingerprint).
func instanceBody(t *testing.T, n int, opts serve.SolveOptions, async bool) []byte {
	t.Helper()
	p := make([]float64, n)
	class := make([]int, n)
	for i := range p {
		p[i] = 1
	}
	in, err := sched.NewIdentical(p, class, []float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var instJSON bytes.Buffer
	if err := in.WriteJSON(&instJSON); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.SolveRequest{Instance: instJSON.Bytes(), Options: opts, Async: async})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSolve(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalesceSingleSolve is the coalescing contract end to end: N
// concurrent identical POSTs produce exactly one engine solve, and every
// response carries the leader's bytes verbatim.
func TestCoalesceSingleSolve(t *testing.T) {
	const clients = 16
	h := newHarness(t, 2, serve.Config{Queue: 4}, true, 0)

	body := instanceBody(t, 6, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}, false)
	type reply struct {
		status   int
		coalesce string
		data     []byte
	}
	replies := make(chan reply, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, data := postSolve(t, h.ts.URL, body)
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Coalesce"), data}
		}()
	}
	// Every request has joined the flight (leader counted + 15 followers)
	// before the solver is released — the coalescing window is guaranteed
	// open, not timing-dependent.
	<-h.started
	waitFor(t, "all requests to join the flight", func() bool {
		st := h.srv.Stats()
		return st.Coalesce.Leaders+st.Coalesce.Followers == clients
	})
	close(h.gate)

	var leaderN int
	var first []byte
	for i := 0; i < clients; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d body %s", i, r.status, r.data)
		}
		if r.coalesce == "leader" {
			leaderN++
		}
		if first == nil {
			first = r.data
		} else if !bytes.Equal(first, r.data) {
			t.Fatalf("responses differ:\n%s\nvs\n%s", first, r.data)
		}
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("engine solver invoked %d times, want exactly 1", got)
	}
	if leaderN != 1 {
		t.Fatalf("%d leaders, want 1", leaderN)
	}
	st := h.srv.Stats()
	if st.Coalesce.Leaders != 1 || st.Coalesce.Followers != clients-1 {
		t.Fatalf("coalesce stats = %+v, want 1 leader / %d followers", st.Coalesce, clients-1)
	}
}

// TestShedQueueFull: a saturated queue rejects new work with 429 +
// Retry-After while the already-queued requests still complete.
func TestShedQueueFull(t *testing.T) {
	h := newHarness(t, 1, serve.Config{Queue: 2}, true, 0)

	var wg sync.WaitGroup
	queued := make(chan reply2, 2)
	for i := 0; i < 2; i++ {
		n := 4 + i // distinct fingerprints: no coalescing between them
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSolve(t, h.ts.URL, instanceBody(t, n, serve.SolveOptions{Timeout: serve.Duration(10 * time.Second)}, false))
			queued <- reply2{resp.StatusCode, data}
		}()
	}
	waitFor(t, "queue to fill", func() bool { return h.srv.Stats().Queue.Depth == 2 })

	resp, data := postSolve(t, h.ts.URL, instanceBody(t, 9, serve.SolveOptions{Timeout: serve.Duration(50 * time.Millisecond)}, false))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue answered %d (%s), want 429", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", ra)
	}

	close(h.gate) // let the queued solves run
	wg.Wait()
	for i := 0; i < 2; i++ {
		r := <-queued
		if r.status != http.StatusOK {
			t.Fatalf("queued request %d answered %d (%s) — shedding starved the queue", i, r.status, r.data)
		}
	}
	st := h.srv.Stats()
	if st.Requests.Shed429 != 1 {
		t.Fatalf("Shed429 = %d, want 1", st.Requests.Shed429)
	}
}

type reply2 struct {
	status int
	data   []byte
}

// TestShedDeadline: once the drain estimator is trained, a request whose
// deadline the queue cannot meet is shed with 503 without being admitted.
func TestShedDeadline(t *testing.T) {
	h := newHarness(t, 1, serve.Config{Queue: 8}, true, 0)

	// Train the EWMA with one ~80ms solve.
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		resp, data := postSolve(t, h.ts.URL, instanceBody(t, 3, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}, false))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("training solve answered %d (%s)", resp.StatusCode, data)
		}
	}()
	<-h.started
	time.Sleep(80 * time.Millisecond)
	prevGate := h.gate
	close(prevGate)
	<-trained
	if h.srv.Stats().Queue.EWMASolveMs <= 0 {
		t.Fatal("EWMA not trained")
	}

	// Re-arm the gate and park four solves in the queue. The parked posts
	// drain in harness cleanup; they must not touch t after the test body
	// returns, so errors are ignored.
	h.gate = make(chan struct{})
	defer close(h.gate)
	for i := 0; i < 4; i++ {
		body := instanceBody(t, 20+i, serve.SolveOptions{Timeout: serve.Duration(10 * time.Second)}, false)
		go func() {
			resp, err := http.Post(h.ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, "queue to hold 4", func() bool { return h.srv.Stats().Queue.Depth == 4 })

	resp, data := postSolve(t, h.ts.URL, instanceBody(t, 40, serve.SolveOptions{Timeout: serve.Duration(5 * time.Millisecond)}, false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unmeetable deadline answered %d (%s), want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) != nil || !strings.Contains(e.Error, "drain estimate") {
		t.Fatalf("503 body %s does not explain the drain estimate", data)
	}
}

// TestAsyncAndEvents drives the anytime streaming path: an async submit
// returns the solve ID immediately, the SSE endpoint replays and follows
// the bound trajectory, and the terminal "result" event carries the same
// body a sync request would have received.
func TestAsyncAndEvents(t *testing.T) {
	h := newHarness(t, 2, serve.Config{Queue: 4}, true, 0)

	resp, data := postSolve(t, h.ts.URL, instanceBody(t, 7, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}, true))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit answered %d (%s), want 202", resp.StatusCode, data)
	}
	var ack struct {
		ID     string `json:"id"`
		Events string `json:"events"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		t.Fatalf("async ack %s: %v", data, err)
	}

	// While the solve is gated, the result endpoint reports 202.
	<-h.started
	r2, err := http.Get(h.ts.URL + "/v1/solve/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight result fetch answered %d, want 202", r2.StatusCode)
	}

	// Subscribe to the event stream, then release the solver.
	evResp, err := http.Get(h.ts.URL + ack.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	close(h.gate)

	var names []string
	var resultData string
	scanner := bufio.NewScanner(evResp.Body)
	cur := ""
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			cur = strings.TrimPrefix(line, "event: ")
			names = append(names, cur)
		}
		if strings.HasPrefix(line, "data: ") && cur == "result" {
			resultData = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if resultData == "" {
		t.Fatalf("no terminal result event (saw %v)", names)
	}
	sawIncumbent := false
	for _, n := range names {
		if n == "incumbent" {
			sawIncumbent = true
		}
	}
	if !sawIncumbent {
		t.Errorf("no incumbent event before the result (saw %v)", names)
	}
	var res serve.SolveResponse
	if err := json.Unmarshal([]byte(resultData), &res); err != nil {
		t.Fatalf("result event payload %s: %v", resultData, err)
	}
	if res.ID != ack.ID || res.Makespan != 7 || res.Algorithm != "probe" {
		t.Fatalf("result event = %+v", res)
	}

	// The result endpoint now serves the sealed body.
	waitFor(t, "flight completion", func() bool { return h.srv.Stats().Requests.Completed == 1 })
	r3, err := http.Get(h.ts.URL + "/v1/solve/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	final, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(final), []byte(resultData)) {
		t.Fatalf("result fetch after completion: %d %s, want the terminal event body %s", r3.StatusCode, final, resultData)
	}
}

// TestLingerCoalescesNearConcurrent: with Linger set, an identical request
// arriving just after completion rides the finished flight instead of
// starting a new solve.
func TestLingerCoalescesNearConcurrent(t *testing.T) {
	h := newHarness(t, 2, serve.Config{Queue: 4, Linger: time.Hour}, false, 0)
	body := instanceBody(t, 5, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}, false)

	resp1, data1 := postSolve(t, h.ts.URL, body)
	resp2, data2 := postSolve(t, h.ts.URL, body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if h.calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1 (linger join)", h.calls.Load())
	}
	if resp2.Header.Get("X-Coalesce") != "follower" {
		t.Fatalf("second request coalesce = %q, want follower", resp2.Header.Get("X-Coalesce"))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("linger join returned different bytes")
	}
	// A different option digest must not join the lingering flight.
	other := instanceBody(t, 5, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second), Seed: 99}, false)
	if resp3, _ := postSolve(t, h.ts.URL, other); resp3.Header.Get("X-Coalesce") != "leader" {
		t.Fatal("different option digest coalesced onto the lingering flight")
	}
	if h.calls.Load() != 2 {
		t.Fatalf("solver ran %d times after distinct-digest request, want 2", h.calls.Load())
	}
}

// TestDrainShedsNewAndFinishesOld: draining answers new work 503 while the
// admitted solve completes and stays fetchable.
func TestDrainShedsNewAndFinishesOld(t *testing.T) {
	h := newHarness(t, 2, serve.Config{Queue: 4}, true, 0)

	resp, data := postSolve(t, h.ts.URL, instanceBody(t, 8, serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}, true))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit answered %d (%s)", resp.StatusCode, data)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	<-h.started

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- h.srv.Drain(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return h.srv.Stats().Draining })

	shedResp, _ := postSolve(t, h.ts.URL, instanceBody(t, 11, serve.SolveOptions{}, false))
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain answered %d, want 503", shedResp.StatusCode)
	}
	hResp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hResp.Body)
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hResp.StatusCode)
	}

	close(h.gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r, err := http.Get(h.ts.URL + "/v1/solve/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drained solve not fetchable: %d %s", r.StatusCode, body)
	}
}

// TestBatchEndpoint: many instances through one POST, index-aligned
// results.
func TestBatchEndpoint(t *testing.T) {
	h := newHarness(t, 2, serve.Config{Queue: 8}, false, 0)

	var raws []json.RawMessage
	for _, n := range []int{3, 4, 5} {
		p := make([]float64, n)
		class := make([]int, n)
		for i := range p {
			p[i] = 1
		}
		in, err := sched.NewIdentical(p, class, []float64{1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, json.RawMessage(buf.Bytes()))
	}
	body, _ := json.Marshal(serve.BatchRequest{Instances: raws, Options: serve.SolveOptions{Timeout: serve.Duration(5 * time.Second)}})
	resp, err := http.Post(h.ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch answered %d (%s)", resp.StatusCode, data)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Error != "" || item.Makespan != float64(3+i) {
			t.Fatalf("batch item %d = %+v", i, item)
		}
	}
	if h.calls.Load() != 3 {
		t.Fatalf("solver ran %d times, want 3", h.calls.Load())
	}
	if depth := h.srv.Stats().Queue.Depth; depth != 0 {
		t.Fatalf("queue depth %d after batch, want 0", depth)
	}
}

// TestStatszAndHealthz sanity-checks the observability endpoints.
func TestStatszAndHealthz(t *testing.T) {
	h := newHarness(t, 2, serve.Config{Queue: 4}, false, 0)
	if resp, data := postSolve(t, h.ts.URL, instanceBody(t, 4, serve.SolveOptions{}, false)); resp.StatusCode != 200 {
		t.Fatalf("solve answered %d (%s)", resp.StatusCode, data)
	}
	resp, err := http.Get(h.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st serve.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("statsz %s: %v", data, err)
	}
	if st.Requests.Received < 1 || st.Requests.Completed != 1 || st.Coalesce.Leaders != 1 {
		t.Fatalf("statsz counters %+v", st)
	}
	if st.Governor.Budget != 2 {
		t.Fatalf("statsz governor budget = %d, want 2", st.Governor.Budget)
	}
	hResp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hData, _ := io.ReadAll(hResp.Body)
	hResp.Body.Close()
	if hResp.StatusCode != 200 || !strings.Contains(string(hData), "ok") {
		t.Fatalf("healthz %d %s", hResp.StatusCode, hData)
	}
}

// TestBadRequests: malformed inputs answer 400 with a JSON error.
func TestBadRequests(t *testing.T) {
	h := newHarness(t, 1, serve.Config{}, false, 0)
	for name, body := range map[string]string{
		"not json":         "{",
		"missing instance": `{}`,
		"bad instance":     `{"instance": {"kind": "nope"}}`,
		"bad timeout":      `{"instance": {"kind":"identical"}, "options": {"timeout": "soon"}}`,
	} {
		resp, err := http.Post(h.ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	// A misspelled option is named in a 400 on both endpoints, instead of
	// being dropped in favour of the default solver.
	inst := instanceBody(t, 3, serve.SolveOptions{}, false)
	var solveReq serve.SolveRequest
	if err := json.Unmarshal(inst, &solveReq); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/v1/solve": fmt.Sprintf(`{"instance": %s, "options": {"algoritm": "lpt"}}`, solveReq.Instance),
		"/v1/batch": fmt.Sprintf(`{"instances": [%s], "options": {"algoritm": "lpt"}}`, solveReq.Instance),
	} {
		resp, err := http.Post(h.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "algoritm") {
			t.Errorf("%s with a misspelled option: status %d (%s), want 400 naming the field", path, resp.StatusCode, data)
		}
	}
	// An already-expired explicit deadline is shed, not an input error.
	req, _ := http.NewRequest("POST", h.ts.URL+"/v1/solve", bytes.NewReader(instanceBody(t, 3, serve.SolveOptions{}, false)))
	req.Header.Set("X-Request-Deadline", time.Now().Add(-time.Second).Format(time.RFC3339))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("expired deadline answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("expired-deadline shed without Retry-After")
	}
}

// TestSolverPanicAnswersError: a request whose solver panics gets a JSON
// error response naming the panic, and the server keeps answering.
func TestSolverPanicAnswersError(t *testing.T) {
	reg := sched.NewRegistry()
	err := reg.Register(sched.NewSolver("explodes",
		sched.SolverCaps{Kinds: []sched.Kind{sched.Identical}, Guarantee: "none", Priority: 1},
		func(ctx context.Context, in *sched.Instance, opt sched.SolveOptions) (sched.Result, error) {
			panic("boom")
		}))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(sched.WithRegistry(reg), sched.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(eng, serve.Config{Queue: 4}).Handler())
	t.Cleanup(ts.Close)

	resp, data := postSolve(t, ts.URL, instanceBody(t, 4, serve.SolveOptions{}, false))
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "engine: solver explodes panicked: boom") {
		t.Fatalf("solve answered %d (%s), want 500 with the panic as the error", resp.StatusCode, data)
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hData, _ := io.ReadAll(hResp.Body)
	hResp.Body.Close()
	if hResp.StatusCode != 200 || !strings.Contains(string(hData), "ok") {
		t.Fatalf("healthz after the panic: %d %s", hResp.StatusCode, hData)
	}
}
