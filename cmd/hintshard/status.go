package main

// The -status client: a one-shot reader (and, with -submit/-cancel,
// mutator) for the control plane a coordinator serves via -status-addr.
// The summary renderer prints one key=value line per entity so shell
// pipelines can grep for conditions ("worker=.* loops=[1-9]") without
// parsing JSON.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/ctlplane"
)

// statusClient performs the selected one-shot request against the
// control plane at -status's address.
func (o *options) statusClient() int {
	base := o.statQuery
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}
	switch {
	case o.submit != "":
		return o.statusPost(client, base+"/jobs", o.submit)
	case o.cancel >= 0:
		return o.statusPost(client, fmt.Sprintf("%s/jobs/%d/cancel", base, o.cancel), "")
	case o.metrics:
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return o.statusHTTPError(resp)
		}
		io.Copy(o.stdout, resp.Body)
		return 0
	default:
		resp, err := client.Get(base + "/status")
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return o.statusHTTPError(resp)
		}
		var st ctlplane.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			fmt.Fprintf(o.stderr, "decoding status: %v\n", err)
			return 1
		}
		o.renderStatus(&st)
		return 0
	}
}

// statusPost sends one mutation (submit or cancel) and relays the
// server's JSON answer or error text. With -token the request carries
// the control-plane MAC (see ctlplane.Sign); a token-gated coordinator
// answers 401 without it.
func (o *options) statusPost(client *http.Client, url, body string) int {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	req.Header.Set("Content-Type", "text/plain")
	if o.token != "" {
		req.Header.Set(ctlplane.MACHeader, ctlplane.Sign(o.token, req.Method, req.URL.Path, []byte(body)))
	}
	resp, err := client.Do(req)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return o.statusHTTPError(resp)
	}
	io.Copy(o.stdout, resp.Body)
	return 0
}

func (o *options) statusHTTPError(resp *http.Response) int {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	fmt.Fprintf(o.stderr, "%s: %s\n", resp.Status, strings.TrimSpace(string(msg)))
	return 1
}

// renderStatus prints the status document as grep-friendly lines.
func (o *options) renderStatus(st *ctlplane.Status) {
	fmt.Fprintf(o.stdout, "service=%s now=%s\n", st.Service, st.Now.Format(time.RFC3339))
	if c := st.Campaign; c != nil {
		s := c.Stats
		fmt.Fprintf(o.stdout, "campaign: done=%v uptime=%.1fs queue_depth=%d workers=%d assigned=%d stolen=%d requeued=%d discarded=%d verified=%d rejected=%d hung=%d corrupt=%d submitted=%d cancelled=%d\n",
			c.Done, c.At.Sub(c.StartedAt).Seconds(), c.QueueDepth,
			s.Workers, s.Assigned, s.Stolen, s.Requeued, s.Discarded, s.Verified, s.Rejected, s.Hung, s.CorruptFrames, s.Submitted, s.Cancelled)
		for _, j := range c.Jobs {
			fmt.Fprintf(o.stdout, "job=%d experiment=%s seed=%d scale=%g shards=%d state=%s queued=%d inflight=%d completed=%d verify=%d/%d failures=%d map=%s\n",
				j.Index, j.Experiment, j.Seed, j.Scale, j.Shards, j.State,
				j.Queued, j.InFlight, j.Completed, j.Verified, j.VerifySampled, j.Failures, j.ShardStates)
		}
		for _, w := range c.Workers {
			fmt.Fprintf(o.stdout, "worker=%d name=%s state=%s job=%d shard=%d verify=%v shards_done=%d loops=%d loops_per_sec=%.1f uptime=%.1fs last_seen=%.1fs\n",
				w.ID, w.Name, w.State, w.Job, w.Shard, w.Verify, w.ShardsDone, w.LoopsDone, w.LoopsPerSec, w.UptimeSec, w.LastSeenSec)
		}
		if len(c.Workers) == 0 {
			fmt.Fprintln(o.stdout, "workers: none connected yet")
		}
	} else {
		fmt.Fprintln(o.stdout, "campaign: no campaign feed at this endpoint")
	}
	if sv := st.Serve; sv != nil {
		fmt.Fprintf(o.stdout, "serve: packets=%d short_drops=%d bad_frames=%d data_frames=%d hints=%d acks=%d switches=%d admitted=%d evicted=%d rejected=%d write_errors=%d batches=%d live_clients=%d reader_stalls=%d reader_stall_s=%.3f\n",
			sv.Packets, sv.ShortDrops, sv.BadFrames, sv.DataFrames, sv.Hints, sv.Acks, sv.Switches, sv.Admitted, sv.Evicted, sv.Rejected, sv.WriteErrors, sv.Batches, sv.LiveClients,
			sv.ReaderStalls, sv.ReaderStallTime.Seconds())
	}
}
