package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestFlagValidation is the table-driven CLI contract: contradictory
// mode selectors are rejected with a usage message and exit code 2,
// never silently prioritized, and each mode insists on the flags it
// needs. Rows naming -merge, -shard, -o or -no-warm pin that the
// invocations of the deleted one-shot modes are now usage errors, rows
// naming -serve-stdio, -transport or -worker-die-after do the same for
// the deleted subprocess fleet, rows naming -procs for the deleted
// fleet-size flag, and rows naming -run or -campaign for the deleted
// one-job and campaign selectors: job specs are the only fleet form.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"no mode", []string{}, "no mode selected"},
		{"merge and shard", []string{"-merge", "-shard", "0/2", "fig2-2"}, "flag provided but not defined: -merge"},
		{"merge and shards", []string{"-merge", "-shards", "3"}, "flag provided but not defined: -merge"},
		{"connect and shards", []string{"-connect", "h:1", "-shards", "2", "fig2-2"}, "contradictory modes"},
		{"connect and serve-stdio", []string{"-connect", "h:1", "-serve-stdio"}, "flag provided but not defined: -serve-stdio"},
		{"shard and shards", []string{"-shard", "0/2", "-shards", "2", "fig2-2"}, "flag provided but not defined: -shard"},
		{"listen without shards", []string{"-listen", ":0", "fig2-2"}, "no shard count"},
		{"coordinator without run", []string{"-shards", "3"}, "no job specs given"},
		{"worker without run", []string{"-shard", "0/2"}, "flag provided but not defined: -shard"},
		{"merge with run", []string{"-merge", "fig2-2"}, "flag provided but not defined: -merge"},
		{"connect with run", []string{"-connect", "h:1", "-listen", ":0"}, "-listen is a coordinator flag"},
		{"serve-stdio with output", []string{"-serve-stdio", "-o", "f.json"}, "flag provided but not defined: -serve-stdio"},
		{"shard with listen", []string{"-shard", "0/2", "-listen", ":0", "fig2-2"}, "flag provided but not defined: -shard"},
		{"unknown transport", []string{"-shards", "2", "-transport", "smoke-signals", "fig2-2"}, "flag provided but not defined: -transport"},
		{"tcp transport without listen", []string{"-shards", "2", "-transport", "tcp", "fig2-2"}, "flag provided but not defined: -transport"},
		{"procs with tcp", []string{"-shards", "2", "-listen", ":0", "-procs", "3", "fig2-2"}, "flag provided but not defined: -procs"},
		{"procs above the shard cap", []string{"-shards", "2", "-procs", "4097", "fig2-2"}, "flag provided but not defined: -procs"},
		{"listen with subprocess transport", []string{"-shards", "2", "-listen", ":0", "-transport", "subprocess", "fig2-2"}, "flag provided but not defined: -transport"},
		{"die-after-assign on coordinator", []string{"-shards", "2", "-die-after-assign", "1", "fig2-2"}, "-die-after-assign is a worker flag"},
		{"die-after-assign on one-shot", []string{"-shard", "0/2", "-die-after-assign", "1", "fig2-2"}, "flag provided but not defined: -shard"},
		{"worker-die-after without subprocess", []string{"-shards", "2", "-worker-die-after", "1", "fig2-2"}, "flag provided but not defined: -worker-die-after"},
		{"addr-file without tcp", []string{"-shards", "2", "-addr-file", "/tmp/a", "fig2-2"}, "-addr-file publishes a -listen address"},
		{"coordinator flag on connect worker", []string{"-connect", "h:1", "-addr-file", "/tmp/a"}, "coordinator flag"},
		{"coordinator flag on stdio worker", []string{"-serve-stdio", "-retries", "5"}, "flag provided but not defined: -serve-stdio"},
		{"retries on connect worker", []string{"-connect", "h:1", "-retries", "5"}, "coordinator flag"},
		{"coordinator flag on merge", []string{"-merge", "-no-steal"}, "flag provided but not defined: -merge"},
		{"coordinator flag on one-shot", []string{"-shard", "0/2", "-procs", "3", "fig2-2"}, "flag provided but not defined: -shard"},
		{"campaign and merge", []string{"-shards", "2", "-merge", "fig2-2"}, "flag provided but not defined: -merge"},
		{"campaign and connect", []string{"-connect", "h:1", "fig2-2"}, "contradictory modes"},
		{"campaign with run", []string{"-campaign", "-run", "fig2-2"}, "flag provided but not defined: -campaign"},
		{"campaign with one-shot output", []string{"-shards", "2", "-o", "f.json", "fig2-2"}, "flag provided but not defined: -o"},
		{"campaign without jobs", []string{"-shards", "2", "-listen", ":0"}, "no job specs given"},
		{"campaign bad verify", []string{"-verify", "1.5", "fig2-2"}, "outside [0, 1]"},
		{"campaign bad spec", []string{"-shards", "2", "fig2-2:flux=1"}, "unknown option"},
		{"campaign spec without shards", []string{"fig2-2"}, "no shard count"},
		{"campaign spec above the shard cap", []string{"fig2-2:shards=4097"}, "above the cap of 4096"},
		{"campaign missing job file", []string{"-shards", "2", "@/definitely/not/a/file"}, "no such file"},
		{"campaign with die-after-assign", []string{"-die-after-assign", "1", "fig2-2"}, "-die-after-assign is a worker flag"},
		{"campaign listen with inproc", []string{"-transport", "inproc", "-listen", ":0", "fig2-2"}, "flag provided but not defined: -transport"},
		{"run bad verify", []string{"-shards", "2", "-verify", "NaN", "fig2-2"}, "outside [0, 1]"},
		{"run with job-spec arguments", []string{"-run", "fig2-2", "-shards", "2", "fig3-1"}, "flag provided but not defined: -run"},
		{"run unknown experiment", []string{"-shards", "2", "no-such"}, "unknown experiment"},
		{"run non-finite scale", []string{"-shards", "2", "-scale", "NaN", "fig2-2"}, "invalid scale"},
		{"run zero scale", []string{"-shards", "1", "-scale", "0", "fig2-2"}, "invalid scale 0"},
		{"run negative scale", []string{"-shards", "1", "-scale", "-1", "fig2-2"}, "invalid scale -1"},
		{"run flag removed", []string{"-run", "fig2-2", "-shards", "2"}, "flag provided but not defined: -run"},
		{"campaign flag removed", []string{"-campaign", "fig2-2"}, "flag provided but not defined: -campaign"},
		{"verify without campaign", []string{"-connect", "h:1", "-verify", "0.5"}, "coordinator flag"},
		{"report-dir without campaign", []string{"-connect", "h:1", "-report-dir", "/tmp/r"}, "coordinator flag"},
		{"no-warm without campaign", []string{"-connect", "h:1", "-no-warm"}, "flag provided but not defined: -no-warm"},
		{"heartbeat on connect worker", []string{"-connect", "h:1", "-heartbeat", "1s"}, "coordinator flag"},
		{"heartbeat-misses on stdio worker", []string{"-serve-stdio", "-heartbeat-misses", "5"}, "flag provided but not defined: -serve-stdio"},
		{"heartbeat-misses on connect worker", []string{"-connect", "h:1", "-heartbeat-misses", "5"}, "coordinator flag"},
		{"token on merge", []string{"-merge", "-token", "s"}, "flag provided but not defined: -merge"},
		{"chaos on one-shot", []string{"-shard", "0/2", "-chaos-plan", "drop=0.1", "fig2-2"}, "flag provided but not defined: -shard"},
		{"chaos on stdio worker", []string{"-serve-stdio", "-chaos-plan", "drop=0.1"}, "flag provided but not defined: -serve-stdio"},
		{"chaos-seed without plan", []string{"-shards", "2", "-chaos-seed", "7", "fig2-2"}, "needs a -chaos-plan"},
		{"bad chaos plan", []string{"-shards", "2", "-chaos-plan", "drop=2", "fig2-2"}, "probability in [0,1]"},
		{"unknown chaos key", []string{"-connect", "h:1", "-chaos-plan", "teleport=0.5"}, "unknown chaos plan key"},
		{"reconnect without connect", []string{"-shards", "2", "-reconnect", "3", "fig2-2"}, "-reconnect applies to -connect workers"},
		{"negative reconnect", []string{"-connect", "h:1", "-reconnect", "-1"}, "is negative"},
		{"bad flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != 2 {
				t.Errorf("exit code %d, want 2\nstderr: %s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("a refused invocation printed %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.want)
			}
		})
	}
}

func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fig3-1") {
		t.Errorf("-list output lacks experiments:\n%s", stdout.String())
	}
}

// TestInprocCoordinatorMatchesDirectRun drives the full coordinator
// pipeline through the CLI entry point (in-process fleet) with one job
// spec and compares against the equivalent of hintbench's output for
// the same experiment; verification and -report-dir apply to a one-job
// run too.
func TestInprocCoordinatorMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	exp, ok := experiments.ByID("fig2-2")
	if !ok {
		t.Fatal("fig2-2 not registered")
	}
	want := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String() + "\n"
	repDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-shards", "5", "-scale", "0.1", "-seed", "42",
		"-verify", "1", "-report-dir", repDir, "fig2-2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want {
		t.Errorf("coordinator output differs from direct run:\n--- direct ---\n%s\n--- cli ---\n%s", want, stdout.String())
	}
	if got, err := os.ReadFile(filepath.Join(repDir, "job1-fig2-2.out")); err != nil || string(got) != want {
		t.Errorf("report file differs from the direct run (err %v)", err)
	}
}

// TestInprocCampaignMatchesDirectRuns drives the campaign pipeline
// through the CLI entry point (in-process fleet, jobs from both a spec
// argument and an @file, verification on) and requires every report —
// on stdout, in submission order, and in -report-dir — to match the
// direct runs byte for byte.
func TestInprocCampaignMatchesDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	dir := t.TempDir()
	jobFile := filepath.Join(dir, "jobs.txt")
	if err := os.WriteFile(jobFile, []byte("# tail of the campaign\nfig3-1:scale=0.1\nfig2-2:seed=7:shards=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	repDir := filepath.Join(dir, "reports")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-shards", "3",
		"-scale", "0.1", "-seed", "42", "-verify", "1", "-report-dir", repDir,
		"fig2-2", "@" + jobFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	type jobCfg struct {
		id    string
		scale float64
		seed  int64
	}
	jobs := []jobCfg{{"fig2-2", 0.1, 42}, {"fig3-1", 0.1, 42}, {"fig2-2", 0.1, 7}}
	var want strings.Builder
	for ji, jc := range jobs {
		exp, ok := experiments.ByID(jc.id)
		if !ok {
			t.Fatalf("%s not registered", jc.id)
		}
		rep := exp.Run(experiments.Config{Scale: jc.scale, Seed: jc.seed, Workers: 1}).String() + "\n"
		want.WriteString(rep)
		path := filepath.Join(repDir, fmt.Sprintf("job%d-%s.out", ji+1, jc.id))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("report file: %v", err)
			continue
		}
		if string(got) != rep {
			t.Errorf("job %d report file differs from the direct run", ji)
		}
	}
	if stdout.String() != want.String() {
		t.Errorf("campaign stdout differs from the concatenated direct runs:\n--- direct ---\n%s\n--- campaign ---\n%s",
			want.String(), stdout.String())
	}
}

// TestDefaultFleetSize: without -listen the fleet is one in-process
// worker per shard of the widest job, but never more workers than CPUs. The -v summary's workers= counts the workers that joined.
func TestDefaultFleetSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	cpus := runtime.NumCPU()
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"one shard", []string{"-shards", "1", "fig2-2"}, 1},
		{"wider than the machine", []string{"-shards", "1", "fig2-2", fmt.Sprintf("fig2-2:seed=7:shards=%d", cpus+1)}, cpus},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-scale", "0.1", "-v"}, c.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			m := regexp.MustCompile(`workers=(\d+)`).FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("no workers= in the -v summary:\n%s", stderr.String())
			}
			if got, _ := strconv.Atoi(m[1]); got != c.want {
				t.Errorf("fleet of %d workers, want %d (CPUs %d)", got, c.want, cpus)
			}
		})
	}
}
