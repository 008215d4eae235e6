// Simcluster reproduces the paper's headline comparison interactively:
// one 150 GB HistogramRating job on HadoopV1, YARN and SMapReduce over
// the simulated 16-worker cluster, with per-engine progress milestones.
package main

import (
	"fmt"
	"log"
	"math"

	smapreduce "smapreduce"
	"smapreduce/internal/mr"
)

func main() {
	const inputGB = 150
	fmt.Printf("HistogramRating, %d GB input, 16 workers, 3 map + 2 reduce initial slots\n\n", inputGB)

	type outcome struct {
		engine smapreduce.Engine
		result *smapreduce.Result
		half   float64 // first sample with half the map work done
	}
	var outcomes []outcome
	for _, engine := range []smapreduce.Engine{smapreduce.HadoopV1, smapreduce.YARN, smapreduce.SMapReduce} {
		o := outcome{engine: engine, half: math.NaN()}
		opts := smapreduce.Options{Prepare: func(c *mr.Cluster) error {
			c.SetOnProgress(func(p mr.Progress) {
				if p.Milestone == mr.MilestoneSample && p.MapPct >= 50 && math.IsNaN(o.half) {
					o.half = p.At
				}
			})
			return nil
		}}
		r, err := smapreduce.Run(engine, opts, smapreduce.Job("histogram-ratings", inputGB<<10, 30))
		if err != nil {
			log.Fatal(err)
		}
		o.result = r
		outcomes = append(outcomes, o)
	}

	fmt.Printf("%-12s %10s %10s %10s %12s %14s\n",
		"engine", "map s", "reduce s", "exec s", "MB/s", "t(50% maps) s")
	for _, o := range outcomes {
		j := o.result.Jobs[0]
		fmt.Printf("%-12v %10.1f %10.1f %10.1f %12.1f %14.1f\n",
			o.engine, j.MapTime(), j.ReduceTime(), j.ExecutionTime(), j.ThroughputMBps(),
			o.half)
	}

	base := outcomes[0].result.Jobs[0].ThroughputMBps()
	fmt.Println()
	for _, o := range outcomes[1:] {
		gain := o.result.Jobs[0].ThroughputMBps()/base - 1
		fmt.Printf("%v throughput vs HadoopV1: %+.0f%%\n", o.engine, 100*gain)
	}

	smr := outcomes[2].result
	fmt.Printf("\nSMapReduce made %d slot decisions; final targets per node: %d map / %d reduce\n",
		len(smr.Decisions),
		smr.Decisions[len(smr.Decisions)-1].MapTarget,
		smr.Decisions[len(smr.Decisions)-1].ReduceTarget)
}
