// Dashboard runs one job with the structured event log and telemetry
// enabled, then renders a terminal dashboard: progress and utilisation
// sparklines, the event summary, per-job history, and the slowest tasks
// — the observability surface an operator of this system would live in.
package main

import (
	"fmt"
	"log"

	"smapreduce/internal/core"
	"smapreduce/internal/metrics"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/telemetry"
)

func main() {
	col := telemetry.NewCollector()
	opts := core.Options{Telemetry: col, Events: true}
	progress := core.RecordProgress(&opts)
	res, err := core.Run(core.EngineSMapReduce, opts, mr.JobSpec{
		Name:    "inverted-index",
		Profile: puma.MustGet("inverted-index"),
		InputMB: 60 << 10,
		Reduces: 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	j, c, events := res.Jobs[0], res.Cluster, res.Events

	const width = 48
	fmt.Printf("inverted-index, 60 GB, 16 workers under SMapReduce — finished in %.0f s\n\n", j.ExecutionTime())

	fmt.Printf("%-16s %s\n", "progress %", metrics.Sparkline(progress.Points(), width))
	for _, row := range []struct{ label, series, unit string }{
		{"running maps", "cluster/running-maps", ""},
		{"running reduces", "cluster/running-reduces", ""},
		{"map input rate", "cluster/map-input-MBps", " MB/s"},
		{"shuffle rate", "cluster/shuffle-MBps", " MB/s"},
	} {
		pts := col.Get(row.series).Points()
		peak := 0.0
		for _, p := range pts {
			peak = max(peak, p.V)
		}
		fmt.Printf("%-16s %s  (peak %.0f%s)\n", row.label, metrics.Sparkline(pts, width), peak, row.unit)
	}

	fmt.Println("\nslot manager decisions:")
	for _, d := range res.Decisions {
		fmt.Printf("  [%7.1f] maps=%d reduces=%d  %s\n", d.At, d.MapTarget, d.ReduceTarget, d.Reason)
	}

	fmt.Println("\njob history:")
	fmt.Print(j.Report(c).String())

	fmt.Println("latest-starting tasks (the stragglers):")
	for _, task := range j.Report(c).SlowestTasks(3) {
		fmt.Printf("  %s/%d on tracker %d, started %.1f s\n", task.Type, task.ID, task.Tracker, task.StartedAt)
	}

	fmt.Printf("\nevent log: %d events (", len(events.Events()))
	for i, kind := range []mr.EventKind{mr.EvTaskStarted, mr.EvTaskDone, mr.EvSlotChange} {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s ×%d", kind, len(events.Filter(kind)))
	}
	fmt.Println(")")
}
