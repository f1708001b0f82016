// Command hintbench regenerates the paper's tables and figures. Each
// experiment prints the rows/series the paper reports plus automated
// shape checks (who wins, by roughly what factor, where crossovers
// fall).
//
// Usage:
//
//	hintbench -list
//	hintbench [-scale 1.0] [-seed 42] [-workers N] all
//	hintbench [-scale 1.0] [-seed 42] [-workers N] fig3-5 table5-1 ...
//	hintbench -cpuprofile cpu.pprof -memprofile mem.pprof fig3-5
//
// Reports are bit-identical for any -workers value: trials derive their
// seeds by trial index and merge in trial order, so -workers only
// changes how fast the tables appear. To spread one experiment across
// processes (or machines) with the same guarantee, see cmd/hintshard.
//
// -cpuprofile/-memprofile write pprof profiles covering the experiment
// runs (the profiles are flushed even when shape checks fail), for
// hunting hot-path regressions with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the selected experiments; it is main minus
// os.Exit, so deferred profile writers run before the process exits
// and the CLI tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hintbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "experiment scale (1.0 = paper scale, smaller = faster)")
	seed := fs.Int64("seed", 42, "random seed for deterministic runs")
	workers := fs.Int("workers", 0, "worker goroutines per experiment (0 = one per CPU); output is identical for any value")
	list := fs.Bool("list", false, "list experiments and exit")
	tag := fs.String("tag", "", "run every experiment carrying this registry tag (see -list)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to `file` (pprof format)")
	memProfile := fs.String("memprofile", "", "write an allocation profile to `file` on exit (pprof format)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// A non-finite scale would run every experiment at its minimum
	// sizes (scaleInt clamps the garbage product) and pass its checks,
	// and a zero or negative one silently at paper scale, so both are
	// refused, as hintshard's jobs refuse them.
	if !(*scale > 0 && *scale <= math.MaxFloat64) {
		fmt.Fprintf(stderr, "invalid scale %g\n", *scale)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent allocation stats before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	reg := experiments.Default
	if *list {
		for _, e := range reg.All() {
			fmt.Fprintf(stdout, "%-12s %-40s %s\n", e.ID, e.Desc, strings.Join(e.Tags, ","))
		}
		fmt.Fprintf(stdout, "tags: %s\n", strings.Join(reg.Tags(), " "))
		return 0
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	ids := fs.Args()
	var runners []experiments.Runner
	switch {
	case *tag != "":
		if len(ids) > 0 {
			fmt.Fprintln(stderr, "-tag and explicit experiment ids are mutually exclusive")
			return 2
		}
		runners = reg.ByTag(*tag)
		if len(runners) == 0 {
			fmt.Fprintf(stderr, "no experiments tagged %q (try -list)\n", *tag)
			return 2
		}
	case len(ids) == 0:
		fmt.Fprintln(stderr, "usage: hintbench [-scale S] [-seed N] all | -tag <tag> | <experiment-id>...")
		fmt.Fprintln(stderr, "run 'hintbench -list' for experiment ids and tags")
		return 2
	case len(ids) == 1 && ids[0] == "all":
		runners = reg.All()
	default:
		for _, id := range ids {
			r, ok := reg.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
			runners = append(runners, r)
		}
	}

	failed := 0
	for _, r := range runners {
		rep := r.Run(cfg)
		fmt.Fprintln(stdout, rep)
		failed += len(rep.Failed())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d shape check(s) failed\n", failed)
		return 1
	}
	return 0
}
