package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctlplane"
	"repro/internal/experiments"
)

// TestCampaignGoldenUnderScraping is the golden determinism test with
// the control plane live: the canonical three-job campaign runs while a
// goroutine scrapes /status and /metrics as fast as it can, and every
// report must still match the standalone run byte for byte. The scraper
// also asserts the counters it sees never go backwards — each snapshot
// is an internally consistent view of some loop state.
func TestCampaignGoldenUnderScraping(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	// The first job is deliberately heavy (~half a second standalone) so
	// the scraper provably overlaps live dispatch — the canonical
	// testJobs() campaign finishes before a scrape completes.
	jobs := []Job{
		{Experiment: "fig3-5", Scale: 0.5, Seed: 42, Shards: 4},
		{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 3},
		{Experiment: "fig3-1", Scale: 0.1, Seed: 7, Shards: 2},
	}
	var bases []string
	for _, j := range jobs {
		bases = append(bases, standalone(t, j))
	}

	ctl := cluster.NewControl()
	srv, err := ctlplane.Start("127.0.0.1:0", ctlplane.Config{Service: "hintshard", Control: ctl})
	if err != nil {
		t.Fatalf("ctlplane: %v", err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	var scrapeErr error
	statusScrapes, metricScrapes := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		var prev cluster.RunStats
		for {
			select {
			case <-ctl.Done():
				return
			default:
			}
			resp, err := client.Get("http://" + srv.Addr() + "/status")
			if err != nil {
				scrapeErr = err
				return
			}
			var st ctlplane.Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				scrapeErr = err
				return
			}
			if st.Campaign != nil {
				s := st.Campaign.Stats
				if s.Workers < prev.Workers || s.Assigned < prev.Assigned ||
					s.Stolen < prev.Stolen || s.Requeued < prev.Requeued ||
					s.Verified < prev.Verified || s.Discarded < prev.Discarded {
					scrapeErr = fmt.Errorf("counters went backwards: %+v then %+v", prev, s)
					return
				}
				prev = s
			}
			statusScrapes++
			resp, err = client.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				scrapeErr = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if st.Campaign != nil && !strings.Contains(string(body), "hintshard_workers_total") {
				scrapeErr = fmt.Errorf("metrics missing workers_total:\n%s", body)
				return
			}
			metricScrapes++
		}
	}()

	tr := startTransport(t, "inproc", 2, false)
	results, stats, err := Run(tr, jobs, Options{
		ShardWorkers: 1,
		Retries:      3,
		Verify:       0.5,
		Control:      ctl,
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("campaign under scraping: %v", err)
	}
	if scrapeErr != nil {
		t.Fatalf("scraper: %v", scrapeErr)
	}
	if statusScrapes < 5 || metricScrapes < 5 {
		t.Fatalf("scraper barely ran (status=%d metrics=%d); the campaign must overlap many scrapes", statusScrapes, metricScrapes)
	}
	for ji, res := range results {
		if got := res.Report.String(); got != bases[ji] {
			t.Errorf("job %d (%s) differs from standalone run under live scraping:\n--- standalone ---\n%s\n--- campaign ---\n%s",
				ji, res.Job.Experiment, bases[ji], got)
		}
	}
	if stats.Verified == 0 {
		t.Error("verification sample was empty; scraping test lost its verify leg")
	}
	t.Logf("%d status + %d metrics scrapes during the campaign", statusScrapes, metricScrapes)
}

// gatedCampaignTransport delays worker arrival until the gate closes,
// so HTTP mutations land on a campaign that provably has not dispatched
// anything yet.
type gatedCampaignTransport struct {
	inner cluster.Transport
	gate  chan struct{}
}

func (g *gatedCampaignTransport) Accept() (cluster.Conn, error) {
	<-g.gate
	return g.inner.Accept()
}

func (g *gatedCampaignTransport) Close() error { return g.inner.Close() }

// TestCampaignMutationsViaHTTP is the end-to-end control-plane test:
// jobs submitted and cancelled through the HTTP endpoints take effect
// on the running scheduler — the submitted job's report is emitted
// byte-identical to its standalone run, the cancelled job never emits,
// and the admission errors surface as HTTP conflicts.
func TestCampaignMutationsViaHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	def := Job{Scale: 0.1, Seed: 42, Shards: 3}
	jobs := []Job{{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 3}}

	ctl := cluster.NewControl()
	srv, err := ctlplane.Start("127.0.0.1:0", ctlplane.Config{
		Service: "hintshard",
		Control: ctl,
		Submit: func(spec string) (int, error) {
			j, err := ParseJob(spec, def)
			if err != nil {
				return 0, err
			}
			return ctl.Submit(cluster.Job{Experiment: j.Experiment, Seed: j.Seed, Scale: j.Scale, Shards: j.Shards})
		},
		Cancel: ctl.Cancel,
	})
	if err != nil {
		t.Fatalf("ctlplane: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	gate := make(chan struct{})
	tr := &gatedCampaignTransport{inner: startTransport(t, "inproc", 2, false), gate: gate}

	type emit struct {
		ji  int
		job Job
		rep string
	}
	var emits []emit
	var stats cluster.RunStats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, stats, runErr = Run(tr, jobs, Options{
			ShardWorkers: 1,
			Retries:      3,
			Control:      ctl,
			Emit: func(ji int, j Job, rep *experiments.Report) error {
				emits = append(emits, emit{ji, j, rep.String()})
				return nil
			},
		})
	}()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Submit one job that will run, one that will be cancelled, and
	// exercise the rejection paths — all while the gate holds every
	// worker out.
	code, body := post("/jobs", "fig3-1:seed=42:shards=2")
	if code != http.StatusOK || !strings.Contains(body, `"job": 1`) {
		t.Fatalf("submit = %d %q", code, body)
	}
	code, body = post("/jobs", "fig2-2:seed=9")
	if code != http.StatusOK || !strings.Contains(body, `"job": 2`) {
		t.Fatalf("second submit = %d %q", code, body)
	}
	if code, body = post("/jobs/2/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel = %d %q", code, body)
	}
	if code, body = post("/jobs", "not-an-experiment"); code != http.StatusConflict {
		t.Fatalf("bad spec submit = %d %q, want 409", code, body)
	}
	if code, body = post("/jobs", ""); code != http.StatusBadRequest {
		t.Fatalf("empty spec submit = %d %q, want 400", code, body)
	}
	if code, body = post("/jobs/99/cancel", ""); code != http.StatusConflict {
		t.Fatalf("cancel of unknown job = %d %q, want 409", code, body)
	}
	if code, body = post("/jobs/x/cancel", ""); code != http.StatusBadRequest {
		t.Fatalf("non-numeric cancel = %d %q, want 400", code, body)
	}
	// A shard count above the coordinator's cap is refused by admission
	// before anything is allocated: 409, and the job is not admitted
	// (the submitted count below stays 2).
	if code, body = post("/jobs", fmt.Sprintf("fig4-6:shards=%d", cluster.MaxShards+1)); code != http.StatusConflict || !strings.Contains(body, "above the cap") {
		t.Fatalf("oversized submit = %d %q, want 409", code, body)
	}

	close(gate)
	<-done
	if runErr != nil {
		t.Fatalf("campaign: %v", runErr)
	}
	if stats.Submitted != 2 || stats.Cancelled != 1 {
		t.Errorf("stats submitted=%d cancelled=%d, want 2/1", stats.Submitted, stats.Cancelled)
	}
	if len(emits) != 2 || emits[0].ji != 0 || emits[1].ji != 1 {
		t.Fatalf("emitted %+v, want jobs 0 and 1 in order (cancelled job 2 absent)", emits)
	}
	wantSubmitted := Job{Experiment: "fig3-1", Scale: 0.1, Seed: 42, Shards: 2}
	if emits[1].job != wantSubmitted {
		t.Errorf("submitted job emitted as %+v, want %+v", emits[1].job, wantSubmitted)
	}
	for _, e := range emits {
		if e.rep != standalone(t, e.job) {
			t.Errorf("job %d (%s) report differs from standalone run", e.ji, e.job.Experiment)
		}
	}
}

// TestSubmitRefusedAtJobCap: a coordinator holds at most
// cluster.MaxOpenJobs jobs admitted but not yet delivered. At the cap,
// Control.Submit is refused with ErrQueueFull and nothing is admitted,
// the same request over HTTP answers 429, and a cancelled job frees its
// slot. Initial jobs count against the same cap.
func TestSubmitRefusedAtJobCap(t *testing.T) {
	job := Job{Experiment: "sec4-2", Scale: 0.1, Seed: 42, Shards: 1}
	initial := make([]Job, cluster.MaxOpenJobs+1)
	for i := range initial {
		initial[i] = job
	}
	if _, _, err := Run(cluster.NewInProcess(0, nil), initial, Options{}); !errors.Is(err, cluster.ErrQueueFull) {
		t.Fatalf("run of %d initial jobs: %v, want ErrQueueFull", len(initial), err)
	}

	ctl := cluster.NewControl()
	srv, err := ctlplane.Start("127.0.0.1:0", ctlplane.Config{
		Service: "hintshard",
		Control: ctl,
		Submit: func(spec string) (int, error) {
			j, err := ParseJob(spec, job)
			if err != nil {
				return 0, err
			}
			return ctl.Submit(j)
		},
	})
	if err != nil {
		t.Fatalf("ctlplane: %v", err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	tr := &gatedCampaignTransport{inner: startTransport(t, "inproc", 2, false), gate: gate}
	done := make(chan struct{})
	var emitted int
	var runErr error
	go func() {
		defer close(done)
		_, _, runErr = Run(tr, []Job{job}, Options{
			ShardWorkers: 1,
			Control:      ctl,
			Emit: func(int, Job, *experiments.Report) error {
				emitted++
				return nil
			},
		})
	}()

	for k := 1; k < cluster.MaxOpenJobs; k++ {
		if _, err := ctl.Submit(job); err != nil {
			t.Fatalf("submit %d of %d: %v", k, cluster.MaxOpenJobs, err)
		}
	}
	if _, err := ctl.Submit(job); !errors.Is(err, cluster.ErrQueueFull) {
		t.Fatalf("submit past the cap: %v, want ErrQueueFull", err)
	}
	resp, err := http.Post("http://"+srv.Addr()+"/jobs", "text/plain", strings.NewReader("sec4-2"))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /jobs past the cap = %d %q, want 429", resp.StatusCode, body)
	}
	if s := ctl.Snapshot(); len(s.Jobs) != cluster.MaxOpenJobs || s.Stats.Submitted != cluster.MaxOpenJobs-1 {
		t.Fatalf("after the refusals: %d jobs, %d submitted; want %d and %d", len(s.Jobs), s.Stats.Submitted, cluster.MaxOpenJobs, cluster.MaxOpenJobs-1)
	}
	if err := ctl.Cancel(1); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if ji, err := ctl.Submit(job); err != nil || ji != cluster.MaxOpenJobs {
		t.Fatalf("submit after a cancel = (%d, %v), want job %d", ji, err, cluster.MaxOpenJobs)
	}

	close(gate)
	<-done
	if runErr != nil {
		t.Fatalf("campaign: %v", runErr)
	}
	if emitted != cluster.MaxOpenJobs {
		t.Errorf("emitted %d reports, want %d", emitted, cluster.MaxOpenJobs)
	}
}
