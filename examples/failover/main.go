// Failover demonstrates the runtime's fault tolerance, driven by a
// declarative chaos schedule (internal/chaos): a terasort runs on 8
// workers while a tracker dies mid-shuffle and later rejoins, another
// tracker loses heartbeats long enough to be blacklisted, and one node
// runs degraded for a while — and the job still completes, at a visible
// but bounded cost versus the clean run.
//
// The same schedule runs from the CLI:
//
//	go run ./cmd/smrsim -bench terasort -input-gb 16 -workers 8 \
//	    -chaos 'crash tt5 @45; rejoin tt5 @110; hbloss tt2 @20 for 6; slow node3 @15 for 40 cpu 0.5 disk 0.5'
package main

import (
	"fmt"
	"log"

	"smapreduce/internal/chaos"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
)

// The fault plan, in the chaos schedule text format. Faults land at
// fixed virtual instants; the clean 16 GB run reaches its map/reduce
// barrier around t=75 s, so the crash at t=45 hits mid-map while the
// shuffle is already overlapping, and the rejoin at t=110 arrives
// during the reduce phase, in time for the tracker to win work back.
const plan = `
# tracker 5 dies mid-shuffle; its running tasks are requeued and its
# lost map outputs re-execute. It rejoins during the reduce phase.
crash  tt5 @45
rejoin tt5 @110

# tracker 2 goes silent for 6 s: blacklisted after 3 s without a
# heartbeat, restored when the beats resume, then held on probation.
hbloss tt2 @20 for 6

# node 3 runs at half speed for 40 s (say, a failing disk controller).
slow node3 @15 for 40 cpu 0.5 disk 0.5
`

func run(sched *chaos.Schedule) (*mr.Job, *mr.EventLog) {
	cfg := mr.DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	c, err := mr.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	logged := c.EnableEventLog()
	if sched != nil {
		if err := sched.Apply(c); err != nil {
			log.Fatal(err)
		}
	}
	jobs, err := c.Run(mr.JobSpec{
		Name:    "terasort",
		Profile: puma.MustGet("terasort"),
		InputMB: 16 * 1024,
		Reduces: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	return jobs[0], logged
}

func main() {
	fmt.Println("== clean run (8 workers, 16 GB terasort) ==")
	clean, _ := run(nil)
	fmt.Printf("barrier %.1f s, finished %.1f s\n\n", clean.BarrierAt, clean.FinishedAt)

	sched, err := chaos.ParseSchedule(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== same run under a %d-fault chaos schedule ==\n%s\n", len(sched.Faults), sched)
	faulty, logged := run(&sched)

	fmt.Println("fault timeline (from the event log):")
	for _, ev := range logged.Events() {
		switch ev.Kind {
		case mr.EvTrackerDown, mr.EvTrackerRejoin, mr.EvRequeued,
			mr.EvTrackerHBLost, mr.EvTrackerBlacklisted, mr.EvTrackerHBRestored,
			mr.EvTrackerProbation, mr.EvTrackerCleared,
			mr.EvNodeDegraded, mr.EvNodeRestored:
			who := "-"
			if ev.Tracker >= 0 {
				who = fmt.Sprintf("tt%d", ev.Tracker)
			}
			fmt.Printf("  t=%7.2f  %-4s %-20s %s\n", ev.At, who, ev.Kind, ev.Detail)
		}
	}

	fmt.Printf("\nbarrier %.1f s, finished %.1f s\n", faulty.BarrierAt, faulty.FinishedAt)
	fmt.Printf("recovery cost: +%.1f s (%.0f%%) — tasks requeued, lost map outputs re-executed\n",
		faulty.FinishedAt-clean.FinishedAt,
		100*(faulty.FinishedAt/clean.FinishedAt-1))
}
