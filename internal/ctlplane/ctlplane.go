// Package ctlplane is the HTTP control plane shared by the coordinator
// (cmd/hintshard) and the serving plane (cmd/hintnode): a small stdlib
// server exposing live status as JSON (/status), the same counters in
// Prometheus text format (/metrics), and — when the host wires the
// mutation hooks — campaign mutation (POST /jobs to submit, POST
// /jobs/{n}/cancel to withdraw) against the running fleet.
//
// The read path is lock-free by construction: campaign status comes
// from cluster.Control's immutable snapshots (published by the
// coordinator's event loop, swapped in atomically), and serving-plane
// status from hintserve's consistent per-shard stats collection. A
// scraper therefore cannot block, slow, or reorder anything the
// coordinator or serving shards do — which is why the golden
// determinism tests hold byte-identical under concurrent scraping.
package ctlplane

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hintserve"
)

// Config wires one status server to its data sources. Every field is
// optional: nil sources simply omit their section, and nil mutation
// hooks make the mutation endpoints answer 403.
type Config struct {
	// Service names the process ("hintshard", "hintnode"); it prefixes
	// every metric and tags the status document.
	Service string
	// Control is the campaign feed (coordinator side).
	Control *cluster.Control
	// ServeStats is the serving-plane feed (hintnode side).
	ServeStats func() hintserve.Stats
	// Submit parses one job spec and submits it to the running campaign,
	// returning the new job index. Cancel withdraws a job by index.
	Submit func(spec string) (int, error)
	Cancel func(job int) error
	// Token, when non-empty, gates the mutation endpoints (POST /jobs,
	// POST /jobs/{n}/cancel) behind the fleet's session token: requests
	// must carry Sign(token, method, path, body) in the MACHeader header
	// or they answer 401. The read path (/status, /metrics) stays open —
	// it is lock-free and side-effect-free by construction. An empty
	// token leaves mutation open too, matching the trusted-LAN default
	// of the worker handshake.
	Token string
	// Logf, if set, receives one line per mutation request.
	Logf func(format string, args ...any)
}

// Status is the /status document.
type Status struct {
	Service string    `json:"service"`
	Now     time.Time `json:"now"`
	// Campaign is the latest coordinator snapshot (absent until the
	// campaign publishes one, or when no Control is wired).
	Campaign *cluster.Snapshot `json:"campaign,omitempty"`
	// Serve is the serving-plane counter set (hintnode).
	Serve *hintserve.Stats `json:"serve,omitempty"`
}

// Server is one bound status endpoint.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
}

// maxSpecBytes bounds a submitted job-spec body; real specs are tens of
// bytes.
const maxSpecBytes = 4096

// Start binds addr (host:port, port 0 for ephemeral) and serves the
// control plane until Close.
func Start(addr string, cfg Config) (*Server, error) {
	if cfg.Service == "" {
		cfg.Service = "hintshard"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: listen %s: %w", addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/{job}/cancel", s.handleCancel)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (resolved port for :0 binds).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately; in-flight scrapes are cut off.
func (s *Server) Close() error { return s.srv.Close() }

// status assembles the current Status document.
func (s *Server) status() Status {
	st := Status{Service: s.cfg.Service, Now: time.Now()}
	if s.cfg.Control != nil {
		st.Campaign = s.cfg.Control.Snapshot()
	}
	if s.cfg.ServeStats != nil {
		v := s.cfg.ServeStats()
		st.Serve = &v
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.status())
}

// MACHeader carries the mutation-request MAC (see Sign).
const MACHeader = "X-Hintshard-MAC"

// Sign computes the mutation-request MAC: HMAC-SHA256 over the request
// method, path, and body under the shared session token, hex-encoded.
// Binding method and path stops a captured submit MAC from authorising
// a cancel (or vice versa); the scheme deliberately has no nonce — the
// control plane trusts its LAN against replay the same way the worker
// plane does, and the token only keeps strangers from steering the
// fleet.
func Sign(token, method, path string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(token))
	io.WriteString(mac, method)
	mac.Write([]byte{0})
	io.WriteString(mac, path)
	mac.Write([]byte{0})
	mac.Write(body)
	return hex.EncodeToString(mac.Sum(nil))
}

// authorized checks a mutation request's MAC in constant time; with no
// token configured every request passes.
func (s *Server) authorized(r *http.Request, body []byte) bool {
	if s.cfg.Token == "" {
		return true
	}
	want := Sign(s.cfg.Token, r.Method, r.URL.Path, body)
	return hmac.Equal([]byte(r.Header.Get(MACHeader)), []byte(want))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Submit == nil {
		http.Error(w, "job submission is not enabled on this endpoint", http.StatusForbidden)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.authorized(r, body) {
		s.cfg.Logf("ctlplane: submit rejected: bad or missing MAC")
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	spec := strings.TrimSpace(string(body))
	if spec == "" {
		http.Error(w, "empty job spec", http.StatusBadRequest)
		return
	}
	job, err := s.cfg.Submit(spec)
	if err != nil {
		s.cfg.Logf("ctlplane: submit %q rejected: %v", spec, err)
		code := http.StatusConflict
		if errors.Is(err, cluster.ErrQueueFull) {
			// Not a bad job: the queue is full now, and the same request
			// is admitted once earlier reports are out.
			code = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.cfg.Logf("ctlplane: submitted job %d (%s)", job, spec)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"job\": %d}\n", job)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cancel == nil {
		http.Error(w, "job cancellation is not enabled on this endpoint", http.StatusForbidden)
		return
	}
	if !s.authorized(r, nil) {
		s.cfg.Logf("ctlplane: cancel rejected: bad or missing MAC")
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	job, err := strconv.Atoi(r.PathValue("job"))
	if err != nil {
		http.Error(w, "bad job index", http.StatusBadRequest)
		return
	}
	if err := s.cfg.Cancel(job); err != nil {
		s.cfg.Logf("ctlplane: cancel %d rejected: %v", job, err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.cfg.Logf("ctlplane: cancelled job %d", job)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"job\": %d}\n", job)
}

// handleMetrics renders the same data as /status in Prometheus text
// exposition format, all metrics prefixed with the service name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	p := s.cfg.Service
	if s.cfg.Control != nil {
		if snap := s.cfg.Control.Snapshot(); snap != nil {
			writeCampaignMetrics(&b, p, snap)
		}
	}
	if s.cfg.ServeStats != nil {
		writeServeMetrics(&b, p, s.cfg.ServeStats())
	}
	io.WriteString(w, b.String())
}

// metric writes one sample; labels come as alternating key, value
// pairs.
func metric(b *strings.Builder, name string, typ string, value float64, labels ...string) {
	if typ != "" {
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
	}
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", labels[i], labels[i+1])
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %g\n", value)
}

func writeCampaignMetrics(b *strings.Builder, p string, snap *cluster.Snapshot) {
	c := func(name string, v int) {
		metric(b, p+"_"+name, "counter", float64(v))
	}
	st := snap.Stats
	c("workers_total", st.Workers)
	c("shards_assigned_total", st.Assigned)
	c("shards_stolen_total", st.Stolen)
	c("shards_requeued_total", st.Requeued)
	c("results_discarded_total", st.Discarded)
	c("shards_verified_total", st.Verified)
	c("workers_rejected_total", st.Rejected)
	c("workers_hung_total", st.Hung)
	c("corrupt_frames_total", st.CorruptFrames)
	c("jobs_submitted_total", st.Submitted)
	c("jobs_cancelled_total", st.Cancelled)
	metric(b, p+"_queue_depth", "gauge", float64(snap.QueueDepth))
	metric(b, p+"_campaign_done", "gauge", btof(snap.Done))
	metric(b, p+"_campaign_uptime_seconds", "gauge", snap.At.Sub(snap.StartedAt).Seconds())
	for _, j := range snap.Jobs {
		l := []string{"job", strconv.Itoa(j.Index), "experiment", j.Experiment}
		metric(b, p+"_job_shards", "", float64(j.Shards), l...)
		metric(b, p+"_job_shards_completed", "", float64(j.Completed), l...)
		metric(b, p+"_job_shards_in_flight", "", float64(j.InFlight), l...)
		metric(b, p+"_job_shards_queued", "", float64(j.Queued), l...)
		metric(b, p+"_job_failures", "", float64(j.Failures), l...)
		metric(b, p+"_job_state", "", 1, append(l, "state", j.State)...)
	}
	for _, w := range snap.Workers {
		l := []string{"worker", strconv.Itoa(w.ID), "name", w.Name}
		metric(b, p+"_worker_loops_total", "", float64(w.LoopsDone), l...)
		metric(b, p+"_worker_shards_total", "", float64(w.ShardsDone), l...)
		metric(b, p+"_worker_loops_per_second", "", w.LoopsPerSec, l...)
		metric(b, p+"_worker_up", "", btof(w.State != "dead"), append(l, "state", w.State)...)
	}
}

func writeServeMetrics(b *strings.Builder, p string, st hintserve.Stats) {
	u := func(name string, v uint64) { metric(b, p+"_"+name, "counter", float64(v)) }
	u("packets_total", st.Packets)
	u("short_drops_total", st.ShortDrops)
	u("bad_frames_total", st.BadFrames)
	u("data_frames_total", st.DataFrames)
	u("hints_total", st.Hints)
	u("acks_total", st.Acks)
	u("switches_total", st.Switches)
	u("admitted_total", st.Admitted)
	u("evicted_total", st.Evicted)
	u("rejected_total", st.Rejected)
	u("write_errors_total", st.WriteErrors)
	u("batches_total", st.Batches)
	u("reader_stalls_total", st.ReaderStalls)
	metric(b, p+"_reader_stall_seconds_total", "counter", st.ReaderStallTime.Seconds())
	metric(b, p+"_live_clients", "gauge", float64(st.LiveClients))
}

func btof(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
