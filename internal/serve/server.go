// Package serve is the solver-as-a-service layer: an HTTP/JSON front end
// over a sched.Engine handle. It adds the three things the in-process
// service mode cannot provide over the wire:
//
//   - Admission control and backpressure. Requests enter a bounded queue
//     whose slots feed SolveBatch-style admission on the engine governor
//     (every admitted solve still blocks for its one guaranteed compute
//     lane). When the queue is full the request is shed with 429; when the
//     queue's drain estimate (EWMA solve time × queue depth ÷ worker
//     budget) says the request's deadline cannot be met, it is shed with
//     503 — both with a Retry-After hint — so a saturated server degrades
//     by answering fast instead of by timing everything out.
//
//   - Fingerprint-keyed request coalescing. Concurrent requests for the
//     same canonical instance fingerprint (core.Instance.Fingerprint) and
//     option digest ride one engine call: the first becomes the leader and
//     computes, the rest are followers that receive the leader's response
//     byte-for-byte without consuming a queue slot or a governor token —
//     the dedupe primitive for many-users traffic, stacked on top of the
//     engine's warm-start bound cache (coalescing dedupes concurrent
//     repeats, the cache warm-starts sequential ones).
//
//   - Anytime event streaming. Every solve's incumbent/lower-bound
//     improvements are buffered on its flight and streamed over SSE from
//     GET /v1/solve/{id}/events, ending with the terminal result event —
//     the `schedsolve -trace` prototype, over the wire.
//
// Endpoints: POST /v1/solve, POST /v1/batch, GET /v1/solve/{id},
// GET /v1/solve/{id}/events, GET /healthz, GET /statsz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/lp"
)

// maxRequestBody bounds request bodies (a 10k-job unrelated instance is a
// few MB of JSON).
const maxRequestBody = 64 << 20

// eventResult names the terminal SSE event carrying the solve's response
// body.
const eventResult = "result"

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Queue is the admission bound: the maximum number of requests
	// admitted (queued + solving) at once. Default 64.
	Queue int
	// Workers is the engine's concurrency budget, used by the drain
	// estimate. Default: the engine governor's budget, else GOMAXPROCS.
	Workers int
	// DefaultTimeout is the request deadline applied when the client sends
	// none. Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. Default 60s.
	MaxTimeout time.Duration
	// Retain is how long a completed flight stays addressable by ID (for
	// GET /v1/solve/{id} and the events replay). Default 60s.
	Retain time.Duration
	// Linger widens coalescing to near-concurrent repeats: a request whose
	// key matches a flight completed at most Linger ago is served that
	// flight's response without a new engine call. Sound because solves
	// are deterministic per seed and the bound cache is monotone — a fresh
	// solve of the identical request would return the same (or the same
	// cached) result. 0 disables (strictly concurrent coalescing only).
	Linger time.Duration
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults(eng *sched.Engine) Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		if b := eng.GovernorStats().Budget; b > 0 {
			c.Workers = b
		} else {
			c.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 60 * time.Second
	}
	return c
}

// Server is the HTTP front end over one engine handle. Create with New,
// mount via Handler, stop with Drain. All methods are safe for concurrent
// use.
type Server struct {
	eng *sched.Engine
	cfg Config
	mux *http.ServeMux

	baseCtx    context.Context // parent of every flight's solve context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	wg         sync.WaitGroup // in-flight leader solves and batches

	mu      sync.Mutex
	flights map[string]*flight // by coalescing key: in-flight + linger window
	byID    map[string]*flight // in-flight + retained for Retain
	depth   int                // admitted requests (queue slots held)
	ewma    float64            // EWMA of observed solve seconds
	seq     atomic.Int64       // flight ID sequence
	purge   int                // registrations since last byID purge

	received  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	shed429   atomic.Int64
	shed503   atomic.Int64
	timeouts  atomic.Int64 // followers/waiters that hit their own deadline
	leaders   atomic.Int64
	followers atomic.Int64
}

// New builds a Server over the engine.
func New(eng *sched.Engine, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:        eng,
		cfg:        cfg.withDefaults(eng),
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		cancelBase: cancel,
		flights:    make(map[string]*flight),
		byID:       make(map[string]*flight),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/solve/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/solve/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the service down: new requests are shed with 503
// immediately, while admitted solves run to completion. If ctx expires
// first, in-flight solve contexts are cancelled — solvers observe
// cancellation and return their best-so-far promptly — and Drain still
// waits for them to unwind before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// --- admission --------------------------------------------------------------

// shedError carries a load-shed decision to the response writer.
type shedError struct {
	status     int
	retryAfter time.Duration
	reason     string
}

// drainEstimateLocked estimates how long a request admitted now would wait
// for the queue ahead of it to drain plus its own solve: slots-in-queue ×
// EWMA solve time ÷ worker budget. Zero until the first completion trains
// the EWMA (an idle fresh server admits everything).
func (s *Server) drainEstimateLocked(extraSlots int) time.Duration {
	if s.ewma <= 0 {
		return 0
	}
	sec := s.ewma * float64(s.depth+extraSlots) / float64(s.cfg.Workers)
	return time.Duration(sec * float64(time.Second))
}

// retryAfter rounds an estimate up to whole seconds for the Retry-After
// header, minimum 1.
func retryAfter(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	return time.Duration(math.Ceil(d.Seconds())) * time.Second
}

// admitOrJoin resolves a solve request against the coalescing map and the
// admission bound, atomically: join an existing flight as a follower
// (free), or admit a new leader flight holding one queue slot, or shed.
func (s *Server) admitOrJoin(key string, timeout time.Duration) (f *flight, leader bool, shed *shedError) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.flights[key]; f != nil {
		if !f.isDone() {
			return f, false, nil
		}
		if s.cfg.Linger > 0 && now.Sub(f.doneAt) <= s.cfg.Linger {
			return f, false, nil
		}
		delete(s.flights, key)
	}
	if s.depth >= s.cfg.Queue {
		return nil, false, &shedError{
			status:     http.StatusTooManyRequests,
			retryAfter: retryAfter(s.drainEstimateLocked(0)),
			reason:     fmt.Sprintf("queue full (%d/%d admitted)", s.depth, s.cfg.Queue),
		}
	}
	if est := s.drainEstimateLocked(1); est > timeout {
		return nil, false, &shedError{
			status:     http.StatusServiceUnavailable,
			retryAfter: retryAfter(est - timeout),
			reason: fmt.Sprintf("deadline %s not meetable: queue drain estimate %s (%d admitted, EWMA solve %s)",
				timeout, est.Round(time.Millisecond), s.depth, time.Duration(s.ewma*float64(time.Second)).Round(time.Millisecond)),
		}
	}
	s.depth++
	f = s.newFlightLocked(key)
	return f, true, nil
}

// admitBatch reserves slots queue slots for a batch (no coalescing), or
// sheds.
func (s *Server) admitBatch(slots int, timeout time.Duration) *shedError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depth+slots > s.cfg.Queue {
		return &shedError{
			status:     http.StatusTooManyRequests,
			retryAfter: retryAfter(s.drainEstimateLocked(0)),
			reason:     fmt.Sprintf("queue cannot hold batch of %d (%d/%d admitted)", slots, s.depth, s.cfg.Queue),
		}
	}
	// The batch's per-instance deadline starts at worker pickup, but the
	// whole batch shares the request's wall-clock patience: shed when even
	// the first instance would start after the deadline.
	if est := s.drainEstimateLocked(slots); est > timeout {
		return &shedError{
			status:     http.StatusServiceUnavailable,
			retryAfter: retryAfter(est - timeout),
			reason:     fmt.Sprintf("deadline %s not meetable for batch of %d: drain estimate %s", timeout, slots, est.Round(time.Millisecond)),
		}
	}
	s.depth += slots
	return nil
}

// releaseSlots returns queue slots and trains the EWMA with an observed
// per-solve duration.
func (s *Server) releaseSlots(slots int, solveTime time.Duration, ok bool) {
	s.mu.Lock()
	s.depth -= slots
	if s.depth < 0 {
		s.depth = 0
	}
	if ok && solveTime > 0 {
		sec := solveTime.Seconds()
		if s.ewma <= 0 {
			s.ewma = sec
		} else {
			s.ewma = 0.8*s.ewma + 0.2*sec
		}
	}
	s.mu.Unlock()
}

// newFlightLocked registers a fresh flight under both maps and lazily
// purges retained flights past their window. Caller holds s.mu.
func (s *Server) newFlightLocked(key string) *flight {
	id := fmt.Sprintf("s%d", s.seq.Add(1))
	f := newFlight(id, key)
	s.flights[key] = f
	s.byID[id] = f
	if s.purge++; s.purge >= 64 {
		s.purge = 0
		cut := time.Now().Add(-s.cfg.Retain)
		for id, old := range s.byID {
			if old.isDone() && old.doneAt.Before(cut) {
				delete(s.byID, id)
				if s.flights[old.key] == old {
					delete(s.flights, old.key)
				}
			}
		}
	}
	return f
}

// requestTimeout resolves the request deadline: the JSON timeout field,
// else the X-Request-Deadline header (a Go duration like "500ms", or an
// RFC 3339 instant), else the server default; always capped at MaxTimeout.
func (s *Server) requestTimeout(opt Duration, hdr string) (time.Duration, error) {
	d := time.Duration(opt)
	if d == 0 && hdr != "" {
		if dd, err := time.ParseDuration(hdr); err == nil {
			d = dd
		} else if t, err2 := time.Parse(time.RFC3339, hdr); err2 == nil {
			d = time.Until(t)
		} else {
			return 0, fmt.Errorf("serve: X-Request-Deadline %q is neither a duration nor an RFC 3339 time", hdr)
		}
		if d <= 0 {
			// An already-expired explicit deadline: admissible only as an
			// immediate shed (the drain estimate can never meet it).
			return -1, nil
		}
	}
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// --- handlers ---------------------------------------------------------------

// handleSolve serves POST /v1/solve: parse, coalesce-or-admit, then solve
// (leader) or wait (follower).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.received.Add(1)
	if s.draining.Load() {
		s.writeShed(w, &shedError{status: http.StatusServiceUnavailable, retryAfter: time.Second, reason: "server is draining"})
		return
	}
	var req SolveRequest
	if !s.readJSON(w, r, &req) || !s.checkAlgorithm(w, req.Options) {
		return
	}
	if len(req.Instance) == 0 {
		s.writeError(w, http.StatusBadRequest, `missing "instance"`, "")
		return
	}
	in, err := sched.ReadInstance(bytes.NewReader(req.Instance))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	timeout, err := s.requestTimeout(req.Options.Timeout, r.Header.Get("X-Request-Deadline"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	if timeout < 0 {
		s.writeShed(w, &shedError{status: http.StatusServiceUnavailable, retryAfter: time.Second, reason: "request deadline already expired"})
		return
	}

	key := in.Fingerprint() + "|" + req.Options.digest()
	f, leader, shed := s.admitOrJoin(key, timeout)
	if shed != nil {
		s.writeShed(w, shed)
		return
	}
	if leader {
		s.leaders.Add(1)
		s.wg.Add(1)
		go s.runFlight(f, in, req.Options, timeout)
	} else {
		s.followers.Add(1)
		f.followers.Add(1)
	}
	w.Header().Set("X-Solve-ID", f.id)
	if leader {
		w.Header().Set("X-Coalesce", "leader")
	} else {
		w.Header().Set("X-Coalesce", "follower")
	}
	if req.Async {
		s.writeJSON(w, http.StatusAccepted, asyncBody{ID: f.id, Status: "running", Events: "/v1/solve/" + f.id + "/events"})
		return
	}
	// Wait for the flight under this request's own deadline. The small
	// grace lets a flight bounded by the same deadline deliver its
	// best-so-far result instead of racing the waiter's timer.
	timer := time.NewTimer(timeout + 100*time.Millisecond)
	defer timer.Stop()
	select {
	case <-f.done:
		s.writeFlight(w, f)
	case <-timer.C:
		s.timeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for the coalesced result", f.id)
	case <-r.Context().Done():
		// Client went away; the flight keeps computing for its followers
		// and the bound cache.
	}
}

// runFlight owns one engine solve: it runs detached from the leader's HTTP
// request (a disconnected leader must not cancel its followers' shared
// computation), pumps the solve's anytime events into the flight, and
// publishes the response bytes every rider of the flight returns.
func (s *Server) runFlight(f *flight, in *sched.Instance, o SolveOptions, timeout time.Duration) {
	defer s.wg.Done()
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()

	evCh := make(chan sched.Event, 256)
	quit := make(chan struct{})
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for {
			select {
			case ev := <-evCh:
				f.publish(encodeEvent(ev))
			case <-quit:
				for {
					select {
					case ev := <-evCh:
						f.publish(encodeEvent(ev))
					default:
						return
					}
				}
			}
		}
	}()

	start := time.Now()
	opts := append(o.engineOpts(), sched.WithEvents(evCh))
	res, err := s.eng.Solve(ctx, in, opts...)
	elapsed := time.Since(start)
	close(quit)
	<-pumpDone

	var status int
	var body []byte
	if err != nil {
		status = http.StatusInternalServerError
		switch {
		case errors.Is(err, engine.ErrNotApplicable):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		body, _ = json.Marshal(errorBody{Error: err.Error(), ID: f.id})
		if status != http.StatusUnprocessableEntity {
			s.failed.Add(1)
		}
	} else {
		status = http.StatusOK
		body, _ = json.Marshal(SolveResponse{
			ID:         f.id,
			Algorithm:  res.Algorithm,
			Machine:    res.Schedule.Assign,
			Makespan:   res.Makespan,
			LowerBound: res.LowerBound,
			Note:       res.Note,
			ElapsedMs:  float64(elapsed) / float64(time.Millisecond),
		})
		s.completed.Add(1)
	}
	s.finishFlight(f, status, body, elapsed, err == nil)
}

// finishFlight seals the flight: response set, terminal event published,
// queue slot returned, waiters released. The key map entry survives for
// the linger window (purged lazily by the next lookup); without linger it
// is dropped now so the next identical request solves fresh against the
// warm cache.
func (s *Server) finishFlight(f *flight, status int, body []byte, elapsed time.Duration, ok bool) {
	f.status = status
	f.body = body
	f.elapsed = elapsed
	f.doneAt = time.Now()
	f.publish(sseEvent{Name: eventResult, Data: body})
	if s.cfg.Linger <= 0 {
		s.mu.Lock()
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		s.mu.Unlock()
	}
	s.releaseSlots(1, elapsed, ok)
	close(f.done)
}

// handleBatch serves POST /v1/batch through Engine.SolveBatch: one queue
// slot per instance, per-instance deadlines, no coalescing (batch entries
// warm-start each other through the engine's fingerprint cache instead).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.received.Add(1)
	if s.draining.Load() {
		s.writeShed(w, &shedError{status: http.StatusServiceUnavailable, retryAfter: time.Second, reason: "server is draining"})
		return
	}
	var req BatchRequest
	if !s.readJSON(w, r, &req) || !s.checkAlgorithm(w, req.Options) {
		return
	}
	if len(req.Instances) == 0 {
		s.writeError(w, http.StatusBadRequest, `missing "instances"`, "")
		return
	}
	ins := make([]*sched.Instance, len(req.Instances))
	for i, raw := range req.Instances {
		in, err := sched.ReadInstance(bytes.NewReader(raw))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("instance %d: %v", i, err), "")
			return
		}
		ins[i] = in
	}
	timeout, err := s.requestTimeout(req.Options.Timeout, r.Header.Get("X-Request-Deadline"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	if timeout < 0 {
		s.writeShed(w, &shedError{status: http.StatusServiceUnavailable, retryAfter: time.Second, reason: "request deadline already expired"})
		return
	}
	if shed := s.admitBatch(len(ins), timeout); shed != nil {
		s.writeShed(w, shed)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	go func() { // a disconnected client cancels its (uncoalesced) batch
		select {
		case <-r.Context().Done():
			cancel()
		case <-ctx.Done():
		}
	}()

	start := time.Now()
	opts := append(req.Options.engineOpts(), sched.WithTimeout(timeout))
	results := s.eng.SolveBatch(ctx, ins, opts...)
	wall := time.Since(start)

	resp := BatchResponse{Results: make([]BatchItem, len(results))}
	okCount := 0
	for i, br := range results {
		item := BatchItem{ElapsedMs: float64(br.Elapsed) / float64(time.Millisecond)}
		if br.Err != nil {
			item.Error = br.Err.Error()
			if !errors.Is(br.Err, engine.ErrNotApplicable) {
				s.failed.Add(1)
			}
		} else {
			item.Algorithm = br.Result.Algorithm
			item.Machine = br.Result.Schedule.Assign
			item.Makespan = br.Result.Makespan
			item.LowerBound = br.Result.LowerBound
			item.Note = br.Result.Note
			okCount++
			s.completed.Add(1)
		}
		resp.Results[i] = item
	}
	avg := time.Duration(0)
	if okCount > 0 {
		avg = wall / time.Duration(okCount)
	}
	s.releaseSlots(len(ins), avg, okCount > 0)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleResult serves GET /v1/solve/{id}: the flight's response if done,
// else 202.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	f := s.flightByID(r.PathValue("id"))
	if f == nil {
		s.writeError(w, http.StatusNotFound, "unknown or expired solve id", "")
		return
	}
	w.Header().Set("X-Solve-ID", f.id)
	if !f.isDone() {
		s.writeJSON(w, http.StatusAccepted, asyncBody{ID: f.id, Status: "running", Events: "/v1/solve/" + f.id + "/events"})
		return
	}
	s.writeFlight(w, f)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// flightByID looks a flight up in the retention map.
func (s *Server) flightByID(id string) *flight {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// --- stats ------------------------------------------------------------------

// QueueStats describes the admission queue's live state.
type QueueStats struct {
	// Depth is the number of requests currently admitted (queued or
	// solving); Capacity is the admission bound.
	Depth, Capacity int
	// EWMASolveMs is the drain estimator's exponentially-weighted average
	// of observed solve times, in milliseconds.
	EWMASolveMs float64
}

// RequestStats counts request outcomes since the server started.
type RequestStats struct {
	Received, Completed, Failed int64
	// Shed429 counts queue-full rejections, Shed503 deadline-unmeetable
	// (and draining) rejections; both carried a Retry-After.
	Shed429, Shed503 int64
	// Timeouts counts requests whose own deadline expired while waiting
	// for a (coalesced) flight.
	Timeouts int64
}

// CoalesceStats counts how solve traffic mapped onto engine calls.
type CoalesceStats struct {
	// Leaders is the number of engine solves started; Followers the number
	// of requests that rode an existing flight (the work the coalescer
	// saved).
	Leaders, Followers int64
}

// Stats is the /statsz document.
type Stats struct {
	Queue    QueueStats                `json:"queue"`
	Requests RequestStats              `json:"requests"`
	Coalesce CoalesceStats             `json:"coalesce"`
	Cache    sched.CacheStats          `json:"cache"`
	Governor sched.GovernorStats       `json:"governor"`
	Presolve lp.PresolveTotalsSnapshot `json:"presolve"`
	Draining bool                      `json:"draining"`
}

// Stats snapshots the server's counters plus the engine's cache and
// governor statistics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	q := QueueStats{Depth: s.depth, Capacity: s.cfg.Queue, EWMASolveMs: s.ewma * 1000}
	s.mu.Unlock()
	return Stats{
		Queue: q,
		Requests: RequestStats{
			Received:  s.received.Load(),
			Completed: s.completed.Load(),
			Failed:    s.failed.Load(),
			Shed429:   s.shed429.Load(),
			Shed503:   s.shed503.Load(),
			Timeouts:  s.timeouts.Load(),
		},
		Coalesce: CoalesceStats{Leaders: s.leaders.Load(), Followers: s.followers.Load()},
		Cache:    s.eng.CacheStats(),
		Governor: s.eng.GovernorStats(),
		Presolve: lp.PresolveTotals(),
		Draining: s.draining.Load(),
	}
}

// --- response helpers -------------------------------------------------------

// readJSON decodes the request body into v, answering 400 on failure. A
// field the request type does not define is a failure too, so a misspelled
// option is named in the error instead of silently falling back to its
// default.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), "")
		return false
	}
	return true
}

// checkAlgorithm answers 400 when the options name a solver the engine does
// not register, before the request takes a queue slot.
func (s *Server) checkAlgorithm(w http.ResponseWriter, o SolveOptions) bool {
	if o.Algorithm == "" || slices.Contains(s.eng.Solvers(), o.Algorithm) {
		return true
	}
	s.writeError(w, http.StatusBadRequest,
		fmt.Sprintf("unknown algorithm %q (registered: %v)", o.Algorithm, s.eng.Solvers()), "")
	return false
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg, id string) {
	s.writeJSON(w, status, errorBody{Error: msg, ID: id})
}

// writeShed answers a load-shed decision with its Retry-After hint and
// counts it.
func (s *Server) writeShed(w http.ResponseWriter, shed *shedError) {
	if shed.status == http.StatusTooManyRequests {
		s.shed429.Add(1)
	} else {
		s.shed503.Add(1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(shed.retryAfter/time.Second)))
	s.writeJSON(w, shed.status, errorBody{Error: shed.reason})
}

// writeFlight writes a completed flight's sealed response verbatim — every
// rider of a flight answers with the same bytes.
func (s *Server) writeFlight(w http.ResponseWriter, f *flight) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

// encodeEvent renders one engine event as an SSE payload.
func encodeEvent(ev sched.Event) sseEvent {
	data, _ := json.Marshal(struct {
		Value float64 `json:"value"`
		AtMs  float64 `json:"atMs"`
	}{ev.Value, float64(ev.At) / float64(time.Millisecond)})
	return sseEvent{Name: ev.Kind.String(), Data: data}
}
