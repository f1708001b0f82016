package cluster

// CheckJob exposes admission's per-job check to the external test
// package, which can import the job spec parser.
var CheckJob = checkJob
