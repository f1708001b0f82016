package ctlplane

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/hintserve"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestServeStatsEndpoint covers the hintnode shape: a serving-plane
// feed and no campaign control, with mutation endpoints disabled.
func TestServeStatsEndpoint(t *testing.T) {
	stats := hintserve.Stats{Packets: 120, DataFrames: 100, BadFrames: 5, Acks: 100, Batches: 9, LiveClients: 3,
		ReaderStalls: 4, ReaderStallTime: 1500 * time.Millisecond}
	srv, err := Start("127.0.0.1:0", Config{Service: "hintnode", ServeStats: func() hintserve.Stats { return stats }})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d %q", code, body)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, body)
	}
	if st.Service != "hintnode" || st.Campaign != nil || st.Serve == nil {
		t.Fatalf("status document wrong shape: %+v", st)
	}
	if st.Serve.Packets != 120 || st.Serve.LiveClients != 3 {
		t.Errorf("serve stats %+v do not round-trip", st.Serve)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE hintnode_packets_total counter",
		"hintnode_packets_total 120",
		"hintnode_acks_total 100",
		"hintnode_live_clients 3",
		"hintnode_reader_stalls_total 4",
		"hintnode_reader_stall_seconds_total 1.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "campaign") {
		t.Errorf("campaign metrics leaked into a serve-only endpoint:\n%s", body)
	}

	// Mutation hooks are unset: the endpoints exist but refuse.
	resp, err := http.Post(base+"/jobs", "text/plain", strings.NewReader("fig2-2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("submit without a hook = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Post(base+"/jobs/0/cancel", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cancel without a hook = %d, want 403", resp.StatusCode)
	}
}

// TestSubmitBodyHandling pins the submit endpoint's parsing: the body
// is the spec verbatim (trimmed), oversized bodies are truncated at the
// limit rather than buffered unboundedly, and hook errors map to 409.
func TestSubmitBodyHandling(t *testing.T) {
	var got string
	srv, err := Start("127.0.0.1:0", Config{
		Submit: func(spec string) (int, error) {
			got = spec
			return 7, nil
		},
		Cancel: func(job int) error { return nil },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Post(base+"/jobs", "text/plain", strings.NewReader("  fig3-1:seed=7\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got != "fig3-1:seed=7" {
		t.Fatalf("submit = %d, hook saw %q", resp.StatusCode, got)
	}
	if !strings.Contains(string(body), `"job": 7`) {
		t.Errorf("submit response %q missing job index", body)
	}

	resp, err = http.Post(base+"/jobs/3/cancel", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel = %d", resp.StatusCode)
	}
}

// TestMetricLabels pins the exposition-format details the renderer is
// responsible for: quoted label values and the TYPE header appearing
// once per named metric.
func TestMetricLabels(t *testing.T) {
	var b strings.Builder
	metric(&b, "x_job_state", "", 1, "job", "3", "experiment", `fig"2`, "state", "running")
	want := `x_job_state{job="3",experiment="fig\"2",state="running"} 1` + "\n"
	if b.String() != want {
		t.Errorf("metric rendered %q, want %q", b.String(), want)
	}
	b.Reset()
	metric(&b, "x_total", "counter", 42)
	if b.String() != "# TYPE x_total counter\nx_total 42\n" {
		t.Errorf("typed metric rendered %q", b.String())
	}
}

// TestTokenGatesMutation covers the session-token gate on the mutation
// endpoints: a correct MAC passes, a wrong or missing one answers 401
// before any hook runs, the MAC does not transfer between method/path
// pairs, and the read path stays open without credentials.
func TestTokenGatesMutation(t *testing.T) {
	const token = "fleet-secret"
	submits, cancels := 0, 0
	srv, err := Start("127.0.0.1:0", Config{
		Token:  token,
		Submit: func(spec string) (int, error) { submits++; return 1, nil },
		Cancel: func(job int) error { cancels++; return nil },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	post := func(path, body, mac string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if mac != "" {
			req.Header.Set(MACHeader, mac)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	spec := "fig2-2:seed=7"
	if code := post("/jobs", spec, Sign(token, "POST", "/jobs", []byte(spec))); code != http.StatusOK {
		t.Errorf("signed submit = %d, want 200", code)
	}
	if code := post("/jobs/3/cancel", "", Sign(token, "POST", "/jobs/3/cancel", nil)); code != http.StatusOK {
		t.Errorf("signed cancel = %d, want 200", code)
	}
	if submits != 1 || cancels != 1 {
		t.Fatalf("hooks ran %d/%d times, want 1/1", submits, cancels)
	}

	for name, mac := range map[string]string{
		"missing MAC":    "",
		"wrong token":    Sign("other-secret", "POST", "/jobs", []byte(spec)),
		"body not bound": Sign(token, "POST", "/jobs", []byte("fig3-1")),
		"path not bound": Sign(token, "POST", "/jobs/3/cancel", []byte(spec)),
		"garbage":        "zzzz",
	} {
		if code := post("/jobs", spec, mac); code != http.StatusUnauthorized {
			t.Errorf("%s: submit = %d, want 401", name, code)
		}
	}
	if code := post("/jobs/3/cancel", "", Sign(token, "POST", "/jobs/9/cancel", nil)); code != http.StatusUnauthorized {
		t.Errorf("cancel MAC for another job index accepted")
	}
	if submits != 1 || cancels != 1 {
		t.Errorf("hooks ran on rejected requests (%d/%d)", submits, cancels)
	}

	// Reads stay open: status is side-effect-free.
	if code, _ := get(t, base+"/status"); code != http.StatusOK {
		t.Errorf("unauthenticated /status = %d, want 200", code)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("unauthenticated /metrics = %d, want 200", code)
	}
}

// TestEmptyTokenStaysOpen: the trusted-LAN default — no token, no MAC
// required.
func TestEmptyTokenStaysOpen(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{
		Submit: func(spec string) (int, error) { return 0, nil },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+srv.Addr()+"/jobs", "text/plain", strings.NewReader("fig2-2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tokenless submit = %d, want 200", resp.StatusCode)
	}
}
