package sched_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExampleNew builds a long-lived engine handle and solves one instance
// through automatic strongest-applicable dispatch.
func ExampleNew() {
	// Four jobs in two setup classes on two identical machines.
	in, err := sched.NewIdentical(
		[]float64{4, 3, 2, 2}, // job sizes
		[]int{0, 0, 1, 1},     // job classes
		[]float64{2, 3},       // setup sizes per class
		2,                     // machines
	)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := sched.New()
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), in, sched.WithEps(0.25))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s found makespan %.0f (certified ≥ %.0f)\n",
		res.Algorithm, res.Makespan, res.LowerBound)
	// Output:
	// ptas(eps=0.25) found makespan 9 (certified ≥ 9)
}

// ExampleEngine_SolveBatch solves several instances through the engine's
// worker pool — the service mode. Fingerprint-identical instances in one
// batch warm-start from each other's bounds via the shared cache.
func ExampleEngine_SolveBatch() {
	in, err := sched.NewIdentical(
		[]float64{4, 3, 2, 2}, []int{0, 0, 1, 1}, []float64{2, 3}, 2)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := sched.New(sched.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	batch := []*sched.Instance{in, in.Clone(), in.Clone()}
	for i, br := range eng.SolveBatch(context.Background(), batch) {
		if br.Err != nil {
			log.Fatal(br.Err)
		}
		fmt.Printf("instance %d: makespan %.0f\n", i, br.Result.Makespan)
	}
	fmt.Printf("fingerprints cached: %d\n", eng.CacheStats().Entries)
	// Output:
	// instance 0: makespan 9
	// instance 1: makespan 9
	// instance 2: makespan 9
	// fingerprints cached: 1
}

// ExampleWithEvents streams a solve's anytime progress — incumbent
// makespans converging down, certified lower bounds converging up — to a
// channel as the solver publishes them.
func ExampleWithEvents() {
	in, err := sched.NewIdentical(
		[]float64{4, 3, 2, 2}, []int{0, 0, 1, 1}, []float64{2, 3}, 2)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := sched.New()
	if err != nil {
		log.Fatal(err)
	}
	events := make(chan sched.Event, 16)
	if _, err := eng.Solve(context.Background(), in,
		sched.WithAlgorithm("greedy"), sched.WithEvents(events)); err != nil {
		log.Fatal(err)
	}
	for len(events) > 0 {
		ev := <-events
		fmt.Printf("%s %.0f\n", ev.Kind, ev.Value)
	}
	// Output:
	// incumbent 11
	// lower-bound 8
}
