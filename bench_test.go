// Benchmarks: one sub-benchmark per experiment of the CLI's table (every
// table and figure of the paper's evaluation, then the extensions). Each
// regenerates its artifact at a reduced Monte Carlo budget per iteration
// and logs it once, so
//
//	go test -bench=. -benchmem
//
// both measures the harness and reprints the evaluation. Run the
// cmd/relaxfault CLI with -scale paper for tighter statistics.
package relaxfault_test

import (
	"context"
	"testing"

	"relaxfault/internal/experiments"
	"relaxfault/internal/scenario"
)

// benchBudget keeps per-iteration cost at a few hundred milliseconds to a
// few seconds.
var benchBudget = scenario.Budget{
	FaultyNodes:  2000,
	Nodes:        16384,
	Replicas:     1,
	Instructions: 200_000,
}

func BenchmarkExperiments(b *testing.B) {
	paper, extensions := experiments.Names()
	for _, name := range append(paper, extensions...) {
		e, _ := experiments.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				// Every iteration runs the experiment's preset: fig13 and
				// fig16 re-run the simulations they share with fig12 and
				// fig15.
				var res *scenario.Result
				if e.Preset != "" {
					sc, err := scenario.Preset(e.Preset)
					if err != nil {
						b.Fatal(err)
					}
					seed := uint64(7)
					sc.Budget, sc.Seed = benchBudget, &seed
					if res, err = scenario.RunCtx(context.Background(), sc, scenario.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
				out = e.Render(res)
			}
			b.Log("\n" + out)
		})
	}
}
