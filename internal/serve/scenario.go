package serve

import "smapreduce/internal/scenario"

// Scenario is the POST /runs request body (see internal/scenario).
type Scenario = scenario.Scenario

// JobSet is one batch of identical jobs in a Scenario.
type JobSet = scenario.JobSet

// ParseScenario decodes and validates a scenario document.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }
