// Benchmarks: one sub-benchmark per experiment of the CLI's table (every
// table and figure of the paper's evaluation, then the extensions). Each
// regenerates its artifact at a reduced Monte Carlo scale per iteration and
// logs it once, so
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
)

// benchScale keeps per-iteration cost at a few hundred milliseconds to a
// few seconds.
func benchScale() experiments.Scale {
	return experiments.Scale{
		FaultyNodes:  2000,
		Nodes:        16384,
		Replicas:     1,
		Instructions: 200_000,
		Seed:         7,
	}
}

func BenchmarkExperiments(b *testing.B) {
	paper, extensions := experiments.Names()
	for _, name := range append(paper, extensions...) {
		b.Run(name, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				var err error
				// A fresh session per iteration: fig13 and fig16 re-run
				// the simulations they share with fig12 and fig15.
				if out, err = new(experiments.Session).Render(context.Background(), name, benchScale()); err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + out)
		})
	}
}
