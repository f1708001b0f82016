package campaign

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// A campaign is written as one spec per job, either as command-line
// arguments or as lines of a job file; hintshard's -run takes a single
// spec.
//
//	fig3-1
//	fig3-5:scale=0.2
//	fig3-5:scale=0.2:seed=7:shards=12
//
// The experiment id comes first; options follow as colon-separated
// key=value pairs and default to the caller's Job (the CLI's -scale,
// -seed, -shards flags). Job files additionally allow blank lines and
// #-comments.

// ParseJob parses one job spec, filling unspecified fields from def.
// The experiment id must be registered — a campaign that aborts on its
// fifth job because the first misspelled id only surfaced at dispatch
// would waste the whole fleet's work.
func ParseJob(spec string, def Job) (Job, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	j := def
	j.Experiment = parts[0]
	if j.Experiment == "" {
		return Job{}, fmt.Errorf("campaign: job spec %q names no experiment", spec)
	}
	if _, ok := experiments.Default.ByID(j.Experiment); !ok {
		return Job{}, fmt.Errorf("campaign: job spec %q names unknown experiment %q", spec, j.Experiment)
	}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Job{}, fmt.Errorf("campaign: malformed option %q in job spec %q (want key=value)", opt, spec)
		}
		switch key {
		case "scale":
			f, err := strconv.ParseFloat(val, 64)
			// Negated form so NaN (for which every comparison is false)
			// is rejected too.
			if err != nil || !(f > 0 && f <= math.MaxFloat64) {
				return Job{}, fmt.Errorf("campaign: job spec %q: invalid scale %q", spec, val)
			}
			j.Scale = f
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Job{}, fmt.Errorf("campaign: job spec %q: invalid seed %q", spec, val)
			}
			j.Seed = n
		case "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Job{}, fmt.Errorf("campaign: job spec %q: invalid shard count %q", spec, val)
			}
			j.Shards = n
		default:
			return Job{}, fmt.Errorf("campaign: job spec %q: unknown option %q (want scale, seed, or shards)", spec, key)
		}
	}
	// The default scale arrives unchecked. A non-finite one would run
	// every experiment at its minimum sizes (scaleInt clamps the
	// garbage product), so it is refused here like a bad scale= option.
	if !(math.Abs(j.Scale) <= math.MaxFloat64) {
		return Job{}, fmt.Errorf("campaign: job spec %q: invalid scale %g", spec, j.Scale)
	}
	if j.Shards < 1 {
		return Job{}, fmt.Errorf("campaign: job spec %q has no shard count (set shards=K or a -shards default)", spec)
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
		return nil, fmt.Errorf("campaign: reading job file: %w", err)
	}
	return jobs, nil
}
