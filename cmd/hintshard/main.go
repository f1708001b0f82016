// Command hintshard runs one experiment — or a whole campaign of them —
// sharded across workers and merges the partial results into reports
// that are bit-identical to the single-process hintbench output — for
// any shard count, worker count, fleet, assignment order, or worker
// failure. It is a thin front end over the work-stealing cluster
// runtime in internal/cluster; the job spec format lives in
// internal/campaign.
//
// Modes (exactly one per invocation):
//
//	fleet run: split each job's trial space into K shards (a queue,
//	not a static assignment), hand shards to workers as they free up,
//	steal from stragglers, re-dispatch shards lost to dead workers,
//	merge. "-run <id> -shards K" runs one experiment; it is shorthand
//	for the one-job campaign "-campaign -shards K <id>". A campaign
//	queues several jobs through one warm fleet: jobs are specs
//	("id[:scale=S][:seed=N][:shards=K]", defaults from the flags) or
//	"@file" job files (one spec per line, #-comments). Workers stay
//	connected across assignments with their phy tables pre-built (the
//	prepare step), shards of consecutive jobs interleave so stragglers
//	overlap the next job's start, and each report prints in submission
//	order the moment its last shard merges — byte-identical to the
//	standalone hintbench output. -verify F re-executes a deterministic
//	sample of shards (fraction F of each job, at least one) on a
//	second worker and byte-compares the partials: any divergence is a
//	hard fault. -report-dir also writes each report to jobN-<id>.out
//	for scripted diffing. At most cluster.MaxOpenJobs (256) jobs wait
//	for their reports at once: a campaign of more initial jobs is
//	refused at start, and a POST /jobs past the cap is answered 429.
//	Without -listen the fleet is -procs goroutine workers in this
//	process (default: one per shard of the widest job, at most one per
//	CPU); with -listen it is every worker process that connects over
//	TCP (-connect), from this machine or any other.
//
//	    hintshard -run fig3-5 -shards 8 [-procs 3] [-scale S] [-seed N]
//	    hintshard -run fig3-5 -shards 8 -listen :7432 [-addr-file F]
//	    hintshard -campaign -shards 6 [-scale S] [-seed N] fig2-2 fig3-1:scale=0.5
//	    hintshard -campaign -listen :7432 [-verify 0.2] @jobs.txt
//
//	A fleet run also serves a live HTTP control plane with
//	-status-addr (resolved address published via -status-addr-file):
//	GET /status is the full scheduler state as JSON, GET /metrics the
//	same counters in Prometheus text form, and POST /jobs (a job spec)
//	and POST /jobs/{n}/cancel mutate the running schedule.
//
//	status client: "hintshard -status <addr>" is the one-shot client
//	of that control plane.
//
//	    hintshard -status 127.0.0.1:7500
//	    hintshard -status 127.0.0.1:7500 -submit fig2-2:seed=7:shards=2
//	    hintshard -status 127.0.0.1:7500 -cancel 3
//
//	TCP worker: connect to a coordinator and pull shards until stopped.
//
//	    hintshard -connect host:7432 [-workers W]
//
// The determinism contract (internal/parallel/README.md) extends across
// process and machine boundaries: per-trial seeds derive from the root
// seed by global trial index, shards own contiguous trial ranges, and
// the coordinator absorbs per-trial results in global trial order — so
// -shards, -procs, and -listen, like -workers, only change how fast the
// report appears. -die-after-assign injects worker death for the
// failure-path smoke tests.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/ctlplane"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flag set; methods on it implement the
// modes.
type options struct {
	run       string
	scale     float64
	seed      int64
	workers   int
	shards    int
	procs     int
	listen    string
	addrFile  string
	connect   string
	list      bool
	retries   int
	noSteal   bool
	verbose   bool
	dieAfter  int
	camp      bool
	verify    float64
	reportDir string
	statAddr  string
	statFile  string
	statQuery string
	submit    string
	cancel    int
	metrics   bool
	token     string
	heartbeat time.Duration
	hbMisses  int
	reconnect int
	chaosSeed int64
	chaosSpec string

	// plan is the parsed -chaos-plan, nil when chaos is off.
	plan *cluster.FaultPlan

	stdout, stderr io.Writer
}

// run parses args and dispatches to the selected mode; it is main minus
// os.Exit, so the CLI tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hintshard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{stdout: stdout, stderr: stderr}
	fs.StringVar(&o.run, "run", "", "coordinator: the one experiment `id` of a -shards run (see 'hintshard -list')")
	fs.Float64Var(&o.scale, "scale", 1.0, "experiment scale (1.0 = paper scale, smaller = faster)")
	fs.Int64Var(&o.seed, "seed", 42, "random seed for deterministic runs")
	fs.IntVar(&o.workers, "workers", 0, "goroutines per worker for one shard's trials (0 = one per CPU, split across -procs for the in-process fleet)")
	fs.IntVar(&o.shards, "shards", 0, "coordinator: split the trial space into `K` queued shards")
	fs.IntVar(&o.procs, "procs", 0, "coordinator: number of in-process workers when there is no -listen (default min(K, CPUs))")
	fs.StringVar(&o.listen, "listen", "", "coordinator: accept TCP workers on `addr` (e.g. :7432, 127.0.0.1:0) instead of running an in-process fleet")
	fs.StringVar(&o.addrFile, "addr-file", "", "coordinator: write the resolved -listen address to `file` (for scripts using port 0)")
	fs.StringVar(&o.connect, "connect", "", "worker: pull shards from the coordinator at `addr` until stopped")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.IntVar(&o.retries, "retries", 3, "coordinator: per-shard failure budget before aborting")
	fs.BoolVar(&o.noSteal, "no-steal", false, "coordinator: disable speculative re-dispatch of in-flight shards")
	fs.BoolVar(&o.verbose, "v", false, "log dispatches, steals, and worker deaths to stderr")
	fs.IntVar(&o.dieAfter, "die-after-assign", 0, "worker fault injection: exit abruptly on receiving the `n`-th assignment")
	fs.BoolVar(&o.camp, "campaign", false, fmt.Sprintf("run a campaign: queue the job specs (or @file) given as arguments through one fleet (at most %d jobs waiting for their reports; a longer campaign is refused)", cluster.MaxOpenJobs))
	fs.Float64Var(&o.verify, "verify", 0, "coordinator: re-execute this `fraction` of each job's shards on a second worker and byte-compare (0 = off)")
	fs.StringVar(&o.reportDir, "report-dir", "", "coordinator: also write each report to `dir`/jobN-<id>.out for scripted diffing")
	fs.StringVar(&o.statAddr, "status-addr", "", "coordinator: serve the HTTP control plane (/status, /metrics, POST /jobs) on `addr` (e.g. 127.0.0.1:0)")
	fs.StringVar(&o.statFile, "status-addr-file", "", "write the resolved -status-addr address to `file` (for scripts using port 0)")
	fs.StringVar(&o.statQuery, "status", "", "client: query the control plane at `addr` and print a status summary")
	fs.StringVar(&o.submit, "submit", "", "with -status: submit one job `spec` to the running campaign and print its index")
	fs.IntVar(&o.cancel, "cancel", -1, "with -status: cancel the job with this `index` (as shown in the status output)")
	fs.BoolVar(&o.metrics, "metrics", false, "with -status: print the raw Prometheus metrics text instead of the summary")
	fs.StringVar(&o.token, "token", "", "shared auth `secret`; the coordinator rejects workers whose hello MAC does not match and gates control-plane mutations behind it; with -status it signs -submit/-cancel requests (empty = trusted LAN)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "coordinator: ping `interval` for worker liveness (0 = default 2s, negative = disable heartbeats)")
	fs.IntVar(&o.hbMisses, "heartbeat-misses", 0, "coordinator: reap a worker after this many silent heartbeat intervals (0 = default 15)")
	fs.IntVar(&o.reconnect, "reconnect", 0, "TCP worker: redial the coordinator up to `n` times with backoff after a lost session (0 = give up on first loss)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "fault injection: root `seed` of the -chaos-plan schedule")
	fs.StringVar(&o.chaosSpec, "chaos-plan", "", "fault injection `spec` drop=P,dup=P,corrupt=P,delay=P:DUR,partition=N,conns=N,kills=N, applied to this process's outbound frames")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if o.list {
		for _, e := range experiments.Default.All() {
			line := fmt.Sprintf("%-12s %s", e.ID, e.Desc)
			if len(e.Tags) > 0 {
				line += "  [" + strings.Join(e.Tags, ",") + "]"
			}
			if e.Plan != nil {
				p := e.Plan(experiments.Config{Scale: o.scale})
				line += fmt.Sprintf("  plan=%dx%d", p.Cells, p.Units)
			}
			fmt.Fprintln(o.stdout, line)
		}
		return 0
	}

	mode, err := o.mode(explicit)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		usage(o.stderr)
		return 2
	}
	switch mode {
	case "connect":
		return o.tcpWorker()
	case "fleet":
		return o.runFleet(fs.Args())
	case "status":
		return o.statusClient()
	}
	usage(o.stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: hintshard -run <id> -shards K [-procs N | -listen addr]   (fleet run, one job)")
	fmt.Fprintln(w, "       hintshard -campaign [-shards K] <job-spec|@file>...        (fleet run, campaign)")
	fmt.Fprintln(w, "       hintshard -connect addr                                    (TCP worker)")
	fmt.Fprintln(w, "       hintshard -status addr [-submit spec | -cancel N | -metrics]  (control-plane client)")
	fmt.Fprintln(w, "job specs are id[:scale=S][:seed=N][:shards=K]; run 'hintshard -list' for ids")
}

// mode validates flag combinations and names the selected mode.
// Contradictory selectors are rejected rather than silently prioritized,
// and coordinator-only tuning flags are rejected in the worker and
// client modes (explicit holds the flags actually set on the command
// line): a run that quietly ignored half its flags would do something
// the operator did not ask for.
func (o *options) mode(explicit map[string]bool) (string, error) {
	rejectCoordFlags := func(mode string) error {
		for _, f := range []string{"procs", "addr-file", "retries", "no-steal", "heartbeat", "heartbeat-misses", "status-addr", "status-addr-file", "verify", "report-dir"} {
			if explicit[f] {
				return fmt.Errorf("-%s is a coordinator flag; it does not apply to %s", f, mode)
			}
		}
		return nil
	}
	if explicit["reconnect"] && o.connect == "" {
		return "", fmt.Errorf("-reconnect applies to -connect workers")
	}
	if o.reconnect < 0 {
		return "", fmt.Errorf("-reconnect %d is negative", o.reconnect)
	}
	if o.chaosSpec != "" {
		plan, err := cluster.ParseFaultPlan(o.chaosSpec, o.chaosSeed)
		if err != nil {
			return "", err
		}
		o.plan = plan
	} else if explicit["chaos-seed"] {
		return "", fmt.Errorf("-chaos-seed needs a -chaos-plan to seed")
	}
	if o.statQuery == "" {
		for _, f := range []string{"submit", "cancel", "metrics"} {
			if explicit[f] {
				return "", fmt.Errorf("-%s is a status-client flag; it needs -status addr", f)
			}
		}
	}
	if o.statFile != "" && o.statAddr == "" {
		return "", fmt.Errorf("-status-addr-file publishes a -status-addr address; it needs -status-addr")
	}
	var modes []string
	if o.shards > 0 && !o.camp {
		// With -campaign, -shards is the default shard count per job,
		// not a mode selector.
		modes = append(modes, "-shards")
	}
	if o.camp {
		modes = append(modes, "-campaign")
	}
	if o.connect != "" {
		modes = append(modes, "-connect")
	}
	if o.statQuery != "" {
		modes = append(modes, "-status")
	}
	if len(modes) == 0 {
		if o.listen != "" {
			return "", fmt.Errorf("-listen needs -shards K (or -campaign)")
		}
		return "", fmt.Errorf("no mode selected")
	}
	if len(modes) > 1 {
		return "", fmt.Errorf("flags %v select contradictory modes; pick one", modes)
	}
	switch modes[0] {
	case "-connect":
		if o.run != "" || o.shards > 0 || o.listen != "" {
			return "", fmt.Errorf("-connect workers take their assignments from the coordinator (remove -run/-shards/-listen)")
		}
		if err := rejectCoordFlags("a -connect worker"); err != nil {
			return "", err
		}
		return "connect", nil
	case "-status":
		if o.run != "" || o.listen != "" {
			return "", fmt.Errorf("-status is a read/mutate client for a running coordinator (remove -run/-listen)")
		}
		if err := rejectCoordFlags("the -status client"); err != nil {
			return "", err
		}
		// -token is meaningful here (it signs mutation requests); the
		// other session flags still are not — the status client never
		// speaks the cluster frame protocol.
		for _, f := range []string{"chaos-seed", "chaos-plan", "reconnect"} {
			if explicit[f] {
				return "", fmt.Errorf("-%s is a cluster session flag; it does not apply to the -status client", f)
			}
		}
		set := 0
		for _, on := range []bool{o.submit != "", o.cancel >= 0, o.metrics} {
			if on {
				set++
			}
		}
		if set > 1 {
			return "", fmt.Errorf("pick one of -submit, -cancel, -metrics per -status invocation")
		}
		if explicit["cancel"] && o.cancel < 0 {
			return "", fmt.Errorf("-cancel %d is not a job index", o.cancel)
		}
		return "status", nil
	default: // -shards or -campaign: a fleet run
		if o.camp && o.run != "" {
			return "", fmt.Errorf("campaign jobs are given as job specs, not -run")
		}
		if !o.camp && o.run == "" {
			return "", fmt.Errorf("coordinator needs -run <experiment-id>")
		}
		if o.dieAfter > 0 {
			return "", fmt.Errorf("-die-after-assign is a worker flag; give it to a -connect worker")
		}
		// Negated form so NaN (for which every comparison is false) is
		// rejected too.
		if !(o.verify >= 0 && o.verify <= 1) {
			return "", fmt.Errorf("-verify %g outside [0, 1]", o.verify)
		}
		switch {
		case o.listen != "" && o.procs > 0:
			return "", fmt.Errorf("-procs sizes the in-process fleet; TCP workers join via -connect")
		case o.listen == "" && o.addrFile != "":
			return "", fmt.Errorf("-addr-file publishes a -listen address; it needs -listen")
		case o.procs > cluster.MaxShards:
			return "", fmt.Errorf("-procs %d is above the fleet cap of %d workers", o.procs, cluster.MaxShards)
		}
		return "fleet", nil
	}
}

func (o *options) logf() func(string, ...any) {
	if !o.verbose {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(o.stderr, format+"\n", args...)
	}
}

// serveOpts builds the worker-side options, including the
// fault-injection hook behind -die-after-assign.
func (o *options) serveOpts(name string) cluster.ServeOptions {
	so := cluster.ServeOptions{Name: name, Workers: o.workers, Token: o.token}
	if n := o.dieAfter; n > 0 {
		seen := 0
		so.OnAssign = func(cluster.Assign) error {
			seen++
			if seen >= n {
				// Abrupt mid-shard death: the assignment was received
				// and will never be answered.
				fmt.Fprintf(o.stderr, "%s: dying after assignment %d (fault injection)\n", name, seen)
				os.Exit(3)
			}
			return nil
		}
	}
	return so
}

// tcpWorker pulls shards from a remote coordinator until stopped,
// redialing lost sessions up to the -reconnect budget.
func (o *options) tcpWorker() int {
	host, _ := os.Hostname()
	name := fmt.Sprintf("%s/%d", host, os.Getpid())
	do := cluster.DialOptions{Attempts: 1 + o.reconnect, Logf: o.logf()}
	if o.plan != nil {
		do.Wrap = func(c cluster.Conn) cluster.Conn {
			cluster.InjectFaults(c, o.plan.NextConn())
			return c
		}
	}
	if err := cluster.ServeTCP(o.connect, o.serveOpts(name), do); err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	return 0
}

// perWorkerFanout picks how many goroutines each worker fans a shard's
// trials across. The in-process fleet runs every worker on this machine
// at once; the "one goroutine per CPU" default would oversubscribe it
// procs-fold, so split the CPUs instead. An explicit -workers value
// passes through untouched. TCP workers are (usually) other machines:
// the default leaves the fan-out to each worker.
func (o *options) perWorkerFanout(procs int) int {
	perWorker := o.workers
	if perWorker == 0 && o.listen == "" {
		perWorker = runtime.NumCPU() / procs
		if perWorker < 1 {
			perWorker = 1
		}
	}
	return perWorker
}

// buildTransport constructs the fleet: a TCP listener when -listen is
// given, otherwise procs in-process workers.
func (o *options) buildTransport(procs int) (cluster.Transport, error) {
	if o.listen == "" {
		return cluster.NewInProcess(procs, func(i int, c cluster.Conn) {
			cluster.Serve(c, o.serveOpts(fmt.Sprintf("inproc-%d", i)))
		}), nil
	}
	lt, err := cluster.ListenTCP(o.listen)
	if err != nil {
		return nil, err
	}
	if o.addrFile != "" {
		// Atomic write: workers poll for this file, and a torn read of
		// half an address made them dial garbage.
		if err := atomicfile.WriteFile(o.addrFile, []byte(lt.Addr()), 0o644); err != nil {
			lt.Close()
			return nil, err
		}
	}
	fmt.Fprintf(o.stderr, "hintshard: listening on %s\n", lt.Addr())
	return lt, nil
}

// withChaos wraps the coordinator transport with the -chaos-plan fault
// schedule, if one was given.
func (o *options) withChaos(t cluster.Transport) cluster.Transport {
	if o.plan == nil {
		return t
	}
	return cluster.WithChaos(t, o.plan)
}

// runFleet parses the job specs (-run's one spec, or the -campaign
// arguments and @file job files), runs them over the selected
// transport, and prints each report in submission order as it becomes
// ready — exactly as hintbench would print the same experiment, so the
// outputs diff byte for byte.
func (o *options) runFleet(specs []string) int {
	if !o.camp {
		if len(specs) > 0 {
			fmt.Fprintf(o.stderr, "-run takes one experiment, not %q; queue several with -campaign\n", specs)
			usage(o.stderr)
			return 2
		}
		specs = []string{o.run}
	}
	if len(specs) == 0 {
		fmt.Fprintln(o.stderr, "no campaign jobs given (want job specs or @file arguments)")
		usage(o.stderr)
		return 2
	}
	def := cluster.Job{Scale: o.scale, Seed: o.seed, Shards: o.shards}
	var jobs []cluster.Job
	for _, spec := range specs {
		if name, ok := strings.CutPrefix(spec, "@"); ok {
			f, err := os.Open(name)
			if err != nil {
				fmt.Fprintln(o.stderr, err)
				return 2
			}
			js, err := campaign.ReadJobs(f, def)
			f.Close()
			if err != nil {
				fmt.Fprintf(o.stderr, "%s: %v\n", name, err)
				return 2
			}
			jobs = append(jobs, js...)
			continue
		}
		j, err := campaign.ParseJob(spec, def)
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 2
		}
		jobs = append(jobs, j)
	}

	// Default in-process fleet size: enough workers to saturate the
	// widest job, but no more than there are CPUs. The cap was measured
	// when idle workers copied every in-flight shard; with only
	// stragglers copied, K workers ran K = 3 faster on 2 CPUs (DESIGN.md,
	// "Transport interface"), and the cap stays until a wider box is
	// measured too.
	procs := o.procs
	if procs <= 0 {
		for _, j := range jobs {
			procs = max(procs, j.Shards)
		}
		procs = min(procs, runtime.NumCPU())
	}
	perWorker := o.perWorkerFanout(procs)
	if o.reportDir != "" {
		if err := os.MkdirAll(o.reportDir, 0o755); err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
	}
	t, err := o.buildTransport(procs)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}

	// The control plane reads immutable snapshots and funnels mutations
	// through the coordinator's event loop, so serving it — even under
	// aggressive scraping — cannot perturb the reports.
	var control *cluster.Control
	if o.statAddr != "" {
		control = cluster.NewControl()
		ctl, err := ctlplane.Start(o.statAddr, ctlplane.Config{
			Service: "hintshard",
			Control: control,
			Submit: func(spec string) (int, error) {
				j, err := campaign.ParseJob(spec, def)
				if err != nil {
					return 0, err
				}
				return control.Submit(j)
			},
			Cancel: control.Cancel,
			Token:  o.token,
			Logf:   o.logf(),
		})
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
		defer ctl.Close()
		fmt.Fprintf(o.stderr, "hintshard: control plane on %s\n", ctl.Addr())
		if o.statFile != "" {
			if err := atomicfile.WriteFile(o.statFile, []byte(ctl.Addr()), 0o644); err != nil {
				fmt.Fprintln(o.stderr, err)
				return 1
			}
		}
	}

	failed := 0
	_, stats, err := cluster.Run(o.withChaos(t), jobs, cluster.Options{
		Control:           control,
		ShardWorkers:      perWorker,
		MergeWorkers:      o.workers,
		Retries:           o.retries,
		NoSteal:           o.noSteal,
		Verify:            o.verify,
		Token:             o.token,
		HeartbeatInterval: o.heartbeat,
		HeartbeatMisses:   o.hbMisses,
		Logf:              o.logf(),
		Emit: func(ji int, j cluster.Job, rep *experiments.Report) error {
			if o.reportDir != "" {
				// j, not jobs[ji]: the control plane can submit jobs past
				// the initial list, and their reports land here too.
				path := filepath.Join(o.reportDir, fmt.Sprintf("job%d-%s.out", ji+1, j.Experiment))
				if err := os.WriteFile(path, []byte(rep.String()+"\n"), 0o644); err != nil {
					return err
				}
			}
			fmt.Fprintln(o.stdout, rep)
			failed += len(rep.Failed())
			return nil
		},
	})
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	if o.verbose {
		fmt.Fprintf(o.stderr, "campaign: %d jobs done (workers=%d assigned=%d stolen=%d requeued=%d discarded=%d verified=%d)\n",
			len(jobs), stats.Workers, stats.Assigned, stats.Stolen, stats.Requeued, stats.Discarded, stats.Verified)
	}
	if failed > 0 {
		fmt.Fprintf(o.stderr, "%d shape check(s) failed\n", failed)
		return 1
	}
	return 0
}
