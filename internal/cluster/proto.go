// Package cluster is the transport-abstracted, work-stealing execution
// runtime for sharded experiments. A coordinator (Run, for an ordered
// list of jobs; one experiment is a one-job run) keeps one task ledger
// per job and a set of worker connections delivered by a Transport;
// workers (Serve) run shards through experiments.RunShardStream and
// stream the per-loop partial records back. Two transports exist —
// in-process goroutines and TCP — and every job's report is
// byte-identical across both, for any worker count, assignment order,
// speculative duplication, or worker death, because every shard's
// content is a pure function of (experiment, seed, scale, shard k/K)
// and the coordinator feeds each job's shards, their loop records in
// shard order, through the experiments.MergeShards contract unchanged.
//
// The wire protocol is a small typed message set carried in the
// length-prefixed frames of internal/stats: one kind byte, then a JSON
// body whose collector payloads are the bit-exact binary codecs
// (base64-wrapped by encoding/json). Decoding arbitrary bytes returns
// errors, never panics (FuzzDecodeMessage).
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

// ProtoVersion tags the message set; a coordinator refuses workers
// speaking any other version. Version 2 added campaign-aware
// assignment (the job id on assign and every worker reply) and the
// warm-worker prepare step. Version 3 hardened the session: the
// coordinator opens with a challenge (nonce + heartbeat parameters),
// the hello answers it with an HMAC over the shared token, frames carry
// a rolling CRC32C trailer, and ping/pong heartbeats keep liveness
// observable between assignments. Version 4 dropped the loop record's
// sub-trial plan (cells, units) and the prepare message: workers build
// their phy tables on first use.
const ProtoVersion = 4

// Message kinds (the first payload byte of every frame).
const (
	kindChallenge = 'C' // coordinator → worker: version + auth nonce + heartbeat params, first frame of every conn
	kindHello     = 'H' // worker → coordinator: version + name + challenge MAC, sent once in answer
	kindReject    = 'R' // coordinator → worker: session refused (bad MAC, handshake timeout); conn closes after
	kindAssign    = 'A' // coordinator → worker: run shard k/K of a job's experiment
	kindLoop      = 'L' // worker → coordinator: one completed trial loop of the current shard
	kindShardDone = 'D' // worker → coordinator: current shard finished, all loops streamed
	kindShardErr  = 'E' // worker → coordinator: current shard failed
	kindStop      = 'S' // coordinator → worker: no more work, disconnect
	kindPing      = 'p' // coordinator → worker: liveness probe
	kindPong      = 'q' // worker → coordinator: liveness answer, echoing the ping's seq
)

// Message is one protocol message; the concrete types below are the
// complete set.
type Message interface {
	kind() byte
}

// Challenge is the coordinator's opening message on every connection:
// it announces the protocol version, carries the nonce the worker's
// hello must MAC, and tells the worker the heartbeat cadence so both
// sides agree on liveness deadlines. PingMs/CutoffMs of 0 mean
// heartbeats are disabled for the session.
type Challenge struct {
	Version  int    `json:"version"`
	Nonce    string `json:"nonce"`
	PingMs   int    `json:"ping_ms"`
	CutoffMs int    `json:"cutoff_ms"`
}

// Hello answers the challenge: protocol version, the worker's name, and
// the HMAC-SHA256 of the challenge nonce and the name under the shared
// token. An empty token on both sides still produces matching MACs, so
// unauthenticated deployments pay nothing; a token mismatch (or a
// replayed hello — the nonce is fresh per conn) yields a reject.
type Hello struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	MAC     string `json:"mac,omitempty"`
}

// Reject refuses a session; the coordinator closes the conn after
// sending it. Reason is human-readable and deliberately vague about
// auth specifics.
type Reject struct {
	Reason string `json:"reason"`
}

// Ping is the coordinator's liveness probe; a responsive worker answers
// with a Pong echoing Seq even while a shard is computing (the worker's
// reader goroutine answers out of band).
type Ping struct {
	Seq int `json:"seq"`
}

// Pong answers a ping.
type Pong struct {
	Seq int `json:"seq"`
}

// helloMAC computes the challenge answer: HMAC-SHA256 over nonce and
// worker name under the shared token, hex-encoded. The name is bound in
// so a MAC cannot be replayed for a different identity even within the
// nonce's lifetime.
func helloMAC(token, nonce, name string) string {
	mac := hmac.New(sha256.New, []byte(token))
	mac.Write([]byte(nonce))
	mac.Write([]byte{0})
	mac.Write([]byte(name))
	return hex.EncodeToString(mac.Sum(nil))
}

// verifyHello checks a hello's MAC against the nonce this conn was
// challenged with, in constant time.
func verifyHello(token, nonce string, h *Hello) bool {
	return hmac.Equal([]byte(h.MAC), []byte(helloMAC(token, nonce, h.Name)))
}

// Assign hands one shard of one job to a worker. Job is the index of
// the job the shard belongs to; every reply about the shard echoes it,
// so one worker can interleave shards of different experiments within
// a run. Workers bounds the
// goroutines the worker fans the shard's trials across (0 = worker's
// choice).
type Assign struct {
	Job        int     `json:"job"`
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Shard      int     `json:"shard"`
	Shards     int     `json:"shards"`
}

// LoopResult streams one completed trial loop of the shard a worker is
// executing; loops arrive in execution order and ShardDone follows the
// last one.
type LoopResult struct {
	Job   int                      `json:"job"`
	Shard int                      `json:"shard"`
	Loop  *experiments.LoopPartial `json:"loop"`
}

// ShardDone reports the current shard complete (every loop streamed).
type ShardDone struct {
	Job   int `json:"job"`
	Shard int `json:"shard"`
}

// ShardError reports the current shard failed; the coordinator decides
// whether to retry it elsewhere.
type ShardError struct {
	Job   int    `json:"job"`
	Shard int    `json:"shard"`
	Msg   string `json:"msg"`
}

// Stop tells a worker the run is over.
type Stop struct{}

func (*Challenge) kind() byte  { return kindChallenge }
func (*Hello) kind() byte      { return kindHello }
func (*Reject) kind() byte     { return kindReject }
func (*Assign) kind() byte     { return kindAssign }
func (*LoopResult) kind() byte { return kindLoop }
func (*ShardDone) kind() byte  { return kindShardDone }
func (*ShardError) kind() byte { return kindShardErr }
func (*Stop) kind() byte       { return kindStop }
func (*Ping) kind() byte       { return kindPing }
func (*Pong) kind() byte       { return kindPong }

// EncodeMessage serializes a message to a frame payload (kind byte +
// JSON body).
func EncodeMessage(m Message) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding %T: %w", m, err)
	}
	out := make([]byte, 0, 1+len(body))
	out = append(out, m.kind())
	return append(out, body...), nil
}

// DecodeMessage parses a frame payload. Malformed input — unknown kind,
// broken JSON, structurally invalid fields — returns an error; decoding
// never panics, whatever the bytes.
func DecodeMessage(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("cluster: empty message")
	}
	body := payload[1:]
	switch payload[0] {
	case kindChallenge:
		var m Challenge
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding challenge: %w", err)
		}
		if m.Version != ProtoVersion {
			return nil, fmt.Errorf("cluster: protocol version %d, want %d", m.Version, ProtoVersion)
		}
		if m.PingMs < 0 || m.CutoffMs < 0 {
			return nil, fmt.Errorf("cluster: challenge carries negative heartbeat params %d/%d", m.PingMs, m.CutoffMs)
		}
		return &m, nil
	case kindHello:
		var m Hello
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding hello: %w", err)
		}
		if m.Version != ProtoVersion {
			return nil, fmt.Errorf("cluster: protocol version %d, want %d", m.Version, ProtoVersion)
		}
		return &m, nil
	case kindAssign:
		var m Assign
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding assign: %w", err)
		}
		if m.Experiment == "" {
			return nil, fmt.Errorf("cluster: assign names no experiment")
		}
		if m.Job < 0 {
			return nil, fmt.Errorf("cluster: assign carries negative job %d", m.Job)
		}
		if sh := (parallel.Shard{Index: m.Shard, Count: m.Shards}); !sh.Valid() {
			return nil, fmt.Errorf("cluster: assign carries invalid shard %d/%d", m.Shard, m.Shards)
		}
		return &m, nil
	case kindLoop:
		var m LoopResult
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding loop result: %w", err)
		}
		if m.Job < 0 {
			return nil, fmt.Errorf("cluster: loop result for negative job %d", m.Job)
		}
		if m.Shard < 0 {
			return nil, fmt.Errorf("cluster: loop result for negative shard %d", m.Shard)
		}
		if m.Loop == nil {
			return nil, fmt.Errorf("cluster: loop result carries no loop")
		}
		return &m, nil
	case kindShardDone:
		var m ShardDone
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding shard done: %w", err)
		}
		if m.Job < 0 {
			return nil, fmt.Errorf("cluster: done for negative job %d", m.Job)
		}
		if m.Shard < 0 {
			return nil, fmt.Errorf("cluster: done for negative shard %d", m.Shard)
		}
		return &m, nil
	case kindShardErr:
		var m ShardError
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding shard error: %w", err)
		}
		if m.Job < 0 {
			return nil, fmt.Errorf("cluster: error for negative job %d", m.Job)
		}
		if m.Shard < 0 {
			return nil, fmt.Errorf("cluster: error for negative shard %d", m.Shard)
		}
		return &m, nil
	case kindStop:
		var m Stop
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding stop: %w", err)
		}
		return &m, nil
	case kindReject:
		var m Reject
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding reject: %w", err)
		}
		return &m, nil
	case kindPing:
		var m Ping
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding ping: %w", err)
		}
		return &m, nil
	case kindPong:
		var m Pong
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("cluster: decoding pong: %w", err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("cluster: unknown message kind %q", payload[0])
}
