// Command schedbench regenerates the paper-validation experiments (see
// DESIGN.md §4 and EXPERIMENTS.md) and benchmarks the solver engine.
//
// Usage:
//
//	schedbench -list              list all experiments
//	schedbench -exp E4            run one experiment
//	schedbench -all               run the whole suite
//	schedbench -all -quick        smaller sizes (seconds instead of minutes)
//	schedbench -seed 7 -exp E2    change the master seed
//	schedbench -engine            race every registered solver per environment
//	schedbench -engine -timeout 2s -n 40 -m 6
//	schedbench -engine -lp dense  pin the LP backend (compare against -lp sparse)
//	schedbench -engine -search-workers 4   speculative parallel dual search
//	schedbench -oversub -batch 16 -n 40 -m 5 -k 4    governed vs ungoverned
//	schedbench -online -events 50 -n 60 -m 6         warm Resolve vs cold re-solve
//	schedbench -online -stream stream.json           replay an instgen -stream file
//	schedbench -serve-load -rps 30 -dur 5s -dup-frac 0.8 -n 100 -m 10 -k 8
//	schedbench -serve-load -url http://localhost:8080 ...    against a running schedserve
//
// The -engine mode generates one instance per machine environment and runs
// every applicable registry solver plus the portfolio race on it, printing
// per-solver makespans, runtimes and LP pivot counts (the lp-iters column;
// see the -lp flag for backend comparison rows); -timeout bounds each run
// with a context deadline; -search-workers evaluates that many makespan
// guesses concurrently in every dual-approximation search (the sw column
// shows the effective parallelism per solver).
//
// The -serve-load mode is an open-loop load generator against the HTTP
// solver service (internal/serve): Poisson arrivals at -rps for -dur, a
// -dup-frac share of requests repeating one anchor instance (the traffic
// request coalescing and the bound cache dedupe), the rest pairwise
// distinct. It reports completed throughput, latency percentiles, the shed
// rate (429/503 admission rejections) and the coalesce hit rate, plus one
// JSON line per run for the BENCH_* artifacts. With no -url it starts an
// in-process server.
//
// The -oversub mode measures the concurrency governor: it fires the worst
// multiplicative load the API can express — a SolveBatch of -batch
// instances, each solved as a portfolio race, each member running a
// -search-workers-wide speculative search — at a governed engine and at a
// WithUngoverned one, and prints wall clock, the observed peak of
// simultaneous LP solves, and the governor's token statistics for each.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/table"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exp     = flag.String("exp", "", "experiment id to run (e.g. E4)")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "reduced instance sizes")
		seed    = flag.Int64("seed", 1, "master random seed")
		engMode = flag.Bool("engine", false, "benchmark the solver engine: per-kind solver race + portfolio")
		timeout = flag.Duration("timeout", 0, "context deadline per engine run (0 = none)")
		gap     = flag.Float64("gap", 0, "engine mode: early-terminate the portfolio at this optimality gap (0 = race to completion)")
		n       = flag.Int("n", 24, "engine mode: number of jobs")
		m       = flag.Int("m", 4, "engine mode: number of machines")
		k       = flag.Int("k", 3, "engine mode: number of setup classes")
		lpKind  = flag.String("lp", "", "engine mode: LP backend for the randomized rounding's feasibility LPs (dense|sparse; default sparse)")
		noPre   = flag.Bool("no-presolve", false, "build the LPs without equilibration scaling (baseline measurement)")
		sworker = flag.Int("search-workers", 0, "engine mode: speculative parallelism of dual-approximation searches (guesses evaluated concurrently; <2 = sequential bisection)")
		oversub = flag.Bool("oversub", false, "oversubscription scenario: governed vs ungoverned engine under batch × portfolio × speculative-search load")
		batch   = flag.Int("batch", 8, "oversub mode: instances per SolveBatch")
		online  = flag.Bool("online", false, "online re-optimization scenario: warm Resolve chain vs cold re-solves over a delta stream, per-event latency percentiles")
		stream  = flag.String("stream", "", "online mode: delta-stream file from `instgen -stream` (empty = generate -events events in memory)")
		events  = flag.Int("events", 50, "online mode: generated event count when no -stream file is given")

		serveLoad  = flag.Bool("serve-load", false, "solver-service load generator: open-loop Poisson arrivals against the HTTP front end")
		url        = flag.String("url", "", "serve-load mode: base URL of a running schedserve (empty = start an in-process server)")
		rps        = flag.Float64("rps", 30, "serve-load mode: mean request arrival rate per second")
		dur        = flag.Duration("dur", 5*time.Second, "serve-load mode: load duration")
		dupFrac    = flag.Float64("dup-frac", 0.5, "serve-load mode: fraction of requests repeating the anchor instance (the coalescing/cache traffic)")
		reqTimeout = flag.Duration("req-timeout", 2*time.Second, "serve-load mode: per-request deadline sent with each solve")
	)
	flag.Parse()
	if _, err := lp.ParseBackend(*lpKind); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Name, e.Claim)
		}
	case *engMode:
		if err := engineBench(*seed, *n, *m, *k, *timeout, *gap, *lpKind, *sworker, *noPre); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *oversub:
		if err := oversubBench(*seed, *n, *m, *k, *batch, *sworker, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *online:
		if err := onlineBench(*seed, *n, *m, *k, *events, *stream, *lpKind, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *serveLoad:
		if err := serveLoadBench(*url, *rps, *dur, *dupFrac, *seed, *n, *m, *k, *reqTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		if err := run(e, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *all:
		for _, e := range experiments.All() {
			if err := run(e, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func run(e experiments.Experiment, cfg experiments.Config) error {
	fmt.Printf("### %s — %s\n", e.ID, e.Name)
	fmt.Printf("### paper claim: %s\n\n", e.Claim)
	out, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Println(out)
	return nil
}

// engineBench generates one instance per machine environment and dispatches
// every applicable solver (and the portfolio race) through the engine
// registry, reporting makespans, lower-bound ratios, runtimes and — for the
// portfolio — the time-to-incumbent: how far into the race the winning
// makespan was published to the shared bound bus.
func engineBench(seed int64, n, m, k int, timeout time.Duration, gap float64, lpKind string, sworkers int, noPresolve bool) error {
	// Every row solves cold (WithoutWarmStart): the rows compare the
	// algorithms, so a warm start from an earlier row's cached bounds would
	// contaminate the measurement. The -lp flag pins the LP backend of the
	// randomized-rounding solver (other solvers run no backend-selectable
	// LPs); the lp-iters column makes backend wins visible in the table
	// (pivot counts per run), not just in microbenchmarks. -search-workers
	// turns on the speculative parallel dual search (the sw column shows
	// the effective parallelism per solver; "-" for solvers that run no
	// guess search).
	if sworkers < 1 {
		sworkers = 1
	}
	// WithWorkers is the governor's global token budget; size it to the
	// requested search width so a solo solve can actually be granted that
	// many concurrent guess evaluations.
	eng, err := sched.New(sched.WithWorkers(sworkers))
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		gen  func(*rand.Rand, gen.Params) *core.Instance
	}{
		{"identical", gen.Identical},
		{"uniform", gen.Uniform},
		{"restricted-cu", gen.RestrictedClassUniform},
		{"unrelated-cu", gen.UnrelatedClassUniform},
		{"unrelated", gen.Unrelated},
	}
	params := gen.Params{N: n, M: m, K: k}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(seed))
		in := c.gen(rng, params)
		title := fmt.Sprintf("engine race — %s (n=%d m=%d K=%d)", c.name, in.N, in.M, in.K)
		if lpKind != "" {
			title += fmt.Sprintf(" [lp=%s]", lpKind)
		}
		if noPresolve {
			title += " [no-presolve]"
		}
		tab := table.New(title, "solver", "makespan", "ratio", "time", "lp-iters", "scale", "sw", "tti")
		for _, name := range eng.Applicable(in) {
			ctx, cancel := withTimeout(timeout)
			before := lp.PresolveTotals()
			start := time.Now()
			res, err := eng.Solve(ctx, in,
				sched.WithAlgorithm(name), sched.WithoutWarmStart(),
				sched.WithLPBackend(lpKind), sched.WithLPPresolve(!noPresolve),
				sched.WithSearchWorkers(sworkers))
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				tab.AddRow(name, "error", err.Error(), fmtDur(elapsed), "-", "-", "-", "-")
				continue
			}
			tab.AddRow(name, fmt.Sprintf("%.0f", res.Makespan), fmt.Sprintf("%.3f", res.Ratio()),
				fmtDur(elapsed), fmtIters(res.LPIters), presolveCell(before, lp.PresolveTotals()),
				fmtSearchWorkers(name, sworkers), "-")
		}
		ctx, cancel := withTimeout(timeout)
		before := lp.PresolveTotals()
		start := time.Now()
		pr, err := eng.Portfolio(ctx, in,
			sched.WithGap(gap), sched.WithoutWarmStart(),
			sched.WithLPBackend(lpKind), sched.WithLPPresolve(!noPresolve),
			sched.WithSearchWorkers(sworkers))
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			tab.AddRow("portfolio", "error", err.Error(), fmtDur(elapsed), "-", "-", "-", "-")
		} else {
			tti := "-"
			for _, o := range pr.Outcomes {
				if o.Solver == pr.Winner && o.Bounds.BestUpperAt > 0 {
					tti = fmtDur(o.Bounds.BestUpperAt)
				}
			}
			name := fmt.Sprintf("portfolio→%s", pr.Winner)
			if pr.WithinGap {
				name += " (gap hit)"
			}
			tab.AddRow(name, fmt.Sprintf("%.0f", pr.Best.Makespan), fmt.Sprintf("%.3f", pr.Best.Ratio()),
				fmtDur(elapsed), fmtIters(pr.Best.LPIters), presolveCell(before, lp.PresolveTotals()),
				fmtSearchWorkers(pr.Winner, sworkers), tti)
		}
		fmt.Println(tab.String())
	}
	return nil
}

// oversubBench measures what the governor buys under multiplicative load.
// One batch of unrelated instances is solved twice — on a governed engine
// (default budget: GOMAXPROCS) and on a WithUngoverned one — with every
// parallelism layer engaged: SolveBatch dispatch × portfolio racing ×
// speculative search width. The lp-peak column is measured at the LP layer
// itself (the resource the tokens meter), so the governed row demonstrates
// the budget held while the ungoverned row shows the multiplicative blow-up
// it replaces; gov-peak/waits/degraded report how the tokens were spent.
func oversubBench(seed int64, n, m, k, batch, sworkers int, timeout time.Duration) error {
	if sworkers < 1 {
		sworkers = 4
	}
	if batch < 1 {
		batch = 8
	}
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*core.Instance, batch)
	for i := range ins {
		ins[i] = gen.Unrelated(rng, gen.Params{N: n, M: m, K: k})
	}
	rows := []struct {
		name string
		opts []sched.EngineOption
	}{
		{"governed", nil},
		{"ungoverned", []sched.EngineOption{sched.WithUngoverned()}},
	}
	tab := table.New(
		fmt.Sprintf("oversubscription — batch=%d × portfolio × speculate(%d), unrelated n=%d m=%d K=%d, budget=%d",
			batch, sworkers, n, m, k, runtime.GOMAXPROCS(0)),
		"engine", "wall", "Σ makespan", "lp-peak", "gov-peak", "waits", "degraded")
	for _, r := range rows {
		eng, err := sched.New(r.opts...)
		if err != nil {
			return err
		}
		lp.SolveGauge.Reset()
		ctx, cancel := withTimeout(timeout)
		start := time.Now()
		res := eng.SolveBatch(ctx, ins,
			sched.WithPortfolio(), sched.WithSearchWorkers(sworkers),
			sched.WithSeed(seed), sched.WithoutWarmStart())
		wall := time.Since(start)
		cancel()
		sum := 0.0
		for i, br := range res {
			if br.Err != nil {
				return fmt.Errorf("%s: instance %d: %w", r.name, i, br.Err)
			}
			sum += br.Result.Makespan
		}
		govPeak, waits, degraded := "-", "-", "-"
		if len(r.opts) == 0 {
			st := eng.GovernorStats()
			govPeak = fmt.Sprintf("%d/%d", st.Peak, st.Budget)
			waits = fmt.Sprintf("%d", st.Waits)
			degraded = fmt.Sprintf("%d", st.Degradations)
		}
		tab.AddRow(r.name, fmtDur(wall), fmt.Sprintf("%.0f", sum),
			fmt.Sprintf("%d", lp.SolveGauge.Peak()), govPeak, waits, degraded)
	}
	fmt.Println(tab.String())
	return nil
}

// onlineBench measures the incremental re-solve pipeline on an online
// workload: a delta stream (from `instgen -stream`, or generated) is served
// twice — warm, as an Open + Resolve chain carrying patched witnesses,
// lifted brackets and the retained LP relaxation across events, and cold,
// re-solving each post-delta instance from scratch — and the per-event
// latency distribution of each mode is printed. The latency of an event is
// the online-serving metric: how long the schedule stayed stale after the
// event arrived.
func onlineBench(seed int64, n, m, k, events int, streamFile, lpKind string, timeout time.Duration) error {
	var in *core.Instance
	var deltas []core.Delta
	if streamFile != "" {
		f, err := os.Open(streamFile)
		if err != nil {
			return err
		}
		in, deltas, err = core.ReadDeltaStream(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", streamFile, err)
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		in = gen.Unrelated(rng, gen.Params{N: n, M: m, K: k})
		deltas = gen.DeltaStream(rng, in, gen.StreamParams{Events: events})
	}

	type row struct {
		name      string
		latencies []time.Duration
		total     time.Duration
		lastMs    float64
		solved    int
		waits     string
	}
	var rows []row

	// Warm: one engine, one Resolve chain.
	warmEng, err := sched.New()
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(timeout)
	start := time.Now()
	h, evs, err := warmEng.Stream(ctx, in, deltas,
		sched.WithLPBackend(lpKind), sched.WithSeed(seed))
	wall := time.Since(start)
	cancel()
	if err != nil {
		return fmt.Errorf("warm stream: %w", err)
	}
	warm := row{name: "warm (Resolve)", total: wall, lastMs: h.Result().Makespan}
	for _, ev := range evs {
		if ev.Err != nil {
			continue
		}
		warm.latencies = append(warm.latencies, ev.Latency)
		warm.solved++
	}
	st := warmEng.GovernorStats()
	warm.waits = fmt.Sprintf("%d/%s", st.Waits, st.WaitTime.Round(10*time.Microsecond))
	rows = append(rows, warm)

	// Cold: each post-delta instance solved from scratch, cache off.
	coldEng, err := sched.New(sched.WithBoundCache(0))
	if err != nil {
		return err
	}
	cold := row{name: "cold (Solve)", waits: "-"}
	cur := in
	ctx, cancel = withTimeout(timeout)
	start = time.Now()
	for _, d := range deltas {
		next, aerr := d.Apply(cur)
		if aerr != nil {
			continue // same skip as the warm stream
		}
		evStart := time.Now()
		res, serr := coldEng.Solve(ctx, next,
			sched.WithoutWarmStart(), sched.WithLPBackend(lpKind), sched.WithSeed(seed))
		if serr != nil {
			cancel()
			return fmt.Errorf("cold solve: %w", serr)
		}
		cold.latencies = append(cold.latencies, time.Since(evStart))
		cold.solved++
		cold.lastMs = res.Makespan
		cur = next
	}
	cold.total = time.Since(start)
	cancel()
	rows = append(rows, cold)

	tab := table.New(
		fmt.Sprintf("online re-optimization — %s n=%d m=%d K=%d, %d events", in.Kind, in.N, in.M, in.K, len(deltas)),
		"mode", "events", "p50", "p90", "p99", "max", "wall", "final-ms", "gov-waits")
	for _, r := range rows {
		tab.AddRow(r.name, fmt.Sprintf("%d", r.solved),
			fmtDur(percentile(r.latencies, 0.50)), fmtDur(percentile(r.latencies, 0.90)),
			fmtDur(percentile(r.latencies, 0.99)), fmtDur(percentile(r.latencies, 1.0)),
			fmtDur(r.total), fmt.Sprintf("%.0f", r.lastMs), r.waits)
	}
	fmt.Println(tab.String())
	if len(warm.latencies) > 0 && len(cold.latencies) > 0 {
		fmt.Printf("p50 speedup: %.1fx, wall speedup: %.1fx\n\n",
			float64(percentile(cold.latencies, 0.50))/float64(percentile(warm.latencies, 0.50)),
			float64(cold.total)/float64(warm.total))
	}
	return nil
}

// percentile returns the q-quantile (0 < q <= 1) of the latencies by the
// nearest-rank method; zero for an empty sample.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// fmtIters renders an LP pivot count, dashing out solvers that run no LPs.
func fmtIters(n int64) string {
	if n <= 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

// presolveCell renders the mean number of Ruiz equilibration passes per
// scaled LP build between two lp.PresolveTotals snapshots. "-" when no
// scaled build ran (solver without LPs, or -no-presolve).
func presolveCell(before, after lp.PresolveTotalsSnapshot) string {
	runs := after.Runs - before.Runs
	if runs <= 0 {
		return "-"
	}
	return fmt.Sprintf("s%.1f", float64(after.ScalePasses-before.ScalePasses)/float64(runs))
}

// dualSearchSolvers names the registry solvers that run a dual-approximation
// guess search (and therefore honor -search-workers).
var dualSearchSolvers = map[string]bool{
	sched.AlgoPTAS:     true,
	sched.AlgoRounding: true,
	sched.AlgoRA2:      true,
	sched.AlgoPT3:      true,
}

// fmtSearchWorkers renders the effective speculative search parallelism of
// a solver row — the requested width clamped to what the runtime can
// overlap — dashing out solvers without a guess search.
func fmtSearchWorkers(solver string, n int) string {
	if !dualSearchSolvers[solver] {
		return "-"
	}
	return fmt.Sprintf("%d", dual.EffectiveParallelism(n))
}
