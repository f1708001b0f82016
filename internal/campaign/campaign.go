// Package campaign is the job spec format of cmd/hintshard: a run of
// one or more (experiment, scale, seed, shards) jobs through one fleet
// is written as spec strings or job files (ParseJob, ReadJobs), and
// the same format arrives over the control plane's POST /jobs. The
// jobs themselves run through cluster.Run, which queues them in one
// multi-queue, warms every worker's phy tables once, and emits each
// report in submission order — each byte-identical to the standalone
// single-process run of its job.
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
