package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// A run is written as one spec per job, either as command-line
// arguments or as lines of a job file, and the same spec arrives over
// the control plane's POST /jobs:
//
//	fig3-1
//	fig3-5:scale=0.2
//	fig3-5:scale=0.2:seed=7:shards=12
//
// The experiment id comes first; options follow as colon-separated
// key=value pairs and default to the caller's Job (the CLI's -scale,
// -seed, -shards flags). Job files additionally allow blank lines and
// #-comments.

// ParseJob parses one job spec, filling unspecified fields from def,
// and ends with admission's own check, so a spec that Run or a Control
// would refuse is refused here, before any fleet starts — a run that
// aborts on its fifth job because the first misspelled id only
// surfaced at dispatch would waste the whole fleet's work.
func ParseJob(spec string, def Job) (Job, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	j := def
	j.Experiment = parts[0]
	if j.Experiment == "" {
		return Job{}, fmt.Errorf("cluster: job spec %q names no experiment", spec)
	}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Job{}, fmt.Errorf("cluster: malformed option %q in job spec %q (want key=value)", opt, spec)
		}
		switch key {
		case "scale":
			// checkJob below refuses a parsed value that is not positive
			// and finite.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Job{}, fmt.Errorf("cluster: job spec %q: invalid scale %q", spec, val)
			}
			j.Scale = f
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Job{}, fmt.Errorf("cluster: job spec %q: invalid seed %q", spec, val)
			}
			j.Seed = n
		case "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Job{}, fmt.Errorf("cluster: job spec %q: invalid shard count %q", spec, val)
			}
			j.Shards = n
		default:
			return Job{}, fmt.Errorf("cluster: job spec %q: unknown option %q (want scale, seed, or shards)", spec, key)
		}
	}
	if err := checkJob(j); err != nil {
		return Job{}, fmt.Errorf("cluster: job spec %q %w", spec, err)
	}
	return j, nil
}

// ReadJobs reads a job file: one spec per line, with blank lines and
// #-comments (whole-line or trailing) ignored.
func ReadJobs(r io.Reader, def Job) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		j, err := ParseJob(text, def)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading job file: %w", err)
	}
	return jobs, nil
}

// checkJob is the one rule every job passes, typed as a spec, given to
// Run or submitted through a Control: a registered experiment, a
// positive finite scale and 1 ≤ Shards ≤ MaxShards, so admitting a job
// never sizes per-shard state beyond the cap and every Assign it
// dispatches can be encoded (JSON has no NaN or ±Inf). A non-finite
// scale would otherwise run every experiment at its minimum sizes,
// since scaleInt clamps the garbage product, and a zero or negative one
// at paper scale. The error completes "job N".
func checkJob(j Job) error {
	if _, ok := experiments.ByID(j.Experiment); !ok {
		return fmt.Errorf("names unknown experiment %q", j.Experiment)
	}
	// Negated form so NaN (for which every comparison is false) is
	// refused too.
	if !(j.Scale > 0 && j.Scale <= math.MaxFloat64) {
		return fmt.Errorf("(%s) has invalid scale %g", j.Experiment, j.Scale)
	}
	if j.Shards < 1 {
		return fmt.Errorf("(%s) has no shard count", j.Experiment)
	}
	if j.Shards > MaxShards {
		return fmt.Errorf("(%s) asks for %d shards, above the cap of %d", j.Experiment, j.Shards, MaxShards)
	}
	return nil
}
