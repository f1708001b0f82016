// Package campaign re-exports the cluster's job types and Run under the
// names the benchmark harness imports. The job spec format (ParseJob,
// ReadJobs) and admission live in internal/cluster; the package's tests
// drive cluster.Run through these names.
package campaign

import "repro/internal/cluster"

// Job, Options and Result are the cluster's own types under the names
// the benchmark harness imports.
type (
	Job     = cluster.Job
	Options = cluster.Options
	Result  = cluster.Result
)

// Run is cluster.Run.
func Run(t cluster.Transport, jobs []Job, o Options) ([]Result, cluster.RunStats, error) {
	return cluster.Run(t, jobs, o)
}
