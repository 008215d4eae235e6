package localmr_test

import (
	"fmt"

	"smapreduce/internal/localmr"
)

// ExampleRun counts words with the real in-process engine.
func ExampleRun() {
	job := localmr.WordCount("to be or not to be")
	res, err := localmr.Run(localmr.Config{
		MapWorkers: 2, ReduceWorkers: 2, MaxWorkers: 4, Partitions: 2,
	}, job)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, kv := range res.Pairs {
		fmt.Printf("%s=%s ", kv.Key, kv.Value)
	}
	fmt.Println()
	// Output:
	// be=2 not=1 or=1 to=2
}
