package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// Every measured pass runs in a child process of its own: set-up is then
// paid afresh each time (the phy tables are process-wide caches), and
// the peak resident set is the pass's alone. The child prints a
// "ready <ns>" line when its set-up is done (ns is benchmark-side time
// spent before set-up, which the parent subtracts) and, last, one JSON
// passResult.

// passResult is what one child reports.
type passResult struct {
	Mode       string
	RunS, CPUS float64
	PeakRSSMB  float64
	// Ops counts operations attempted and Failed those that failed.
	Ops, Failed int
	// Problems lists verification failures: any makes the run incorrect.
	Problems []string `json:",omitempty"`
	// Notes names failed operations and, where shape checks are not
	// operations, the checks that do not hold at the pass's seed.
	Notes []string `json:",omitempty"`
	// Digests fingerprints each experiment's report by ID; passes at one
	// seed must agree.
	Digests map[string]string `json:",omitempty"`
	// Jobs are the fleet's per-job outcomes, to compare against the
	// in-process reference.
	Jobs []jobResult `json:",omitempty"`
	// Values carries workload-specific figures: end-to-end ones such as
	// ack_kpps from every pass, per-layer ones from traced passes.
	Values map[string]float64 `json:",omitempty"`
	// Lines is the traced pass's per-layer table, for printing.
	Lines []string `json:",omitempty"`
}

// jobResult is one fleet job's outcome in phase "a", "b" or "ref".
type jobResult struct {
	Phase, ID   string
	Digest, Err string
}

// pass is one child's run of one workload.
type pass struct {
	seed      int64
	setupOnly bool
	tr        *tracer // nil when untraced
	prof      bytes.Buffer
	res       passResult
}

// ready reports the end of set-up to the parent; prep is the
// benchmark-side work done since the process started that set-up time
// must not include.
func (p *pass) ready(prep time.Duration) {
	fmt.Printf("ready %d\n", prep.Nanoseconds())
}

// timed runs fn as the pass's timed region: it sets run_s and cpu_s
// and, in a traced pass, takes the CPU profile over it.
func (p *pass) timed(fn func() error) error {
	if p.tr != nil {
		if err := pprof.StartCPUProfile(&p.prof); err != nil {
			return err
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	err := fn()
	p.res.RunS, p.res.CPUS = time.Since(t0).Seconds(), cpuSeconds()-c0
	if p.tr != nil {
		pprof.StopCPUProfile()
	}
	return err
}

// cpuByLayer attributes the timed region's profile; nil in an untraced
// pass.
func (p *pass) cpuByLayer(splitSyscall bool, splits ...string) (map[string]float64, error) {
	if p.tr == nil {
		return nil, nil
	}
	prof, err := parseProfile(p.prof.Bytes())
	if err != nil {
		return nil, err
	}
	return cpuByLayer(prof, splitSyscall, splits...), nil
}

func (p *pass) set(name string, v float64) {
	if p.res.Values == nil {
		p.res.Values = map[string]float64{}
	}
	p.res.Values[name] = v
}

func (p *pass) problem(format string, args ...any) {
	p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// modes are the child entry points.
var modes = map[string]func(*pass) error{
	"figures":   runFigures,
	"fleet":     runFleet,
	"fleet-ref": runFleetRef,
	"city":      runCity,
	"serve":     runServe,
}

// childMain runs one pass and prints its result; traceOut, when set,
// makes the pass traced and names the Chrome trace file to write.
func childMain(mode string, seed int64, setupOnly bool, traceOut string) int {
	run, ok := modes[mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown mode %q\n", mode)
		return 2
	}
	p := &pass{seed: seed, setupOnly: setupOnly, res: passResult{Mode: mode}}
	if traceOut != "" {
		p.tr = newTracer(fmt.Sprintf("%s/seed=%d", mode, seed))
	}
	if err := run(p); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", mode, err)
		return 1
	}
	p.res.PeakRSSMB = peakRSSMB()
	if p.tr != nil && !setupOnly {
		p.res.Lines = append(p.res.Lines, selfTable(p.tr.spans)...)
		if err := writeTrace(p.tr, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(p.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func writeTrace(t *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
