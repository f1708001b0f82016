package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		&Challenge{Version: ProtoVersion, Nonce: "a1b2", PingMs: 2000, CutoffMs: 30000},
		&Hello{Version: ProtoVersion, Name: "w0"},
		&Hello{Version: ProtoVersion, Name: "w1", MAC: helloMAC("tok", "a1b2", "w1")},
		&Reject{Reason: "authentication failed"},
		&Ping{Seq: 7},
		&Pong{Seq: 7},
		&Assign{Job: 2, Experiment: "fig3-1", Seed: 42, Scale: 0.5, Workers: 2, Shard: 3, Shards: 7},
		&LoopResult{Job: 2, Shard: 3, Loop: &experiments.LoopPartial{Label: "x", N: 10, Lo: 4}},
		&ShardDone{Job: 2, Shard: 3},
		&ShardError{Job: 2, Shard: 3, Msg: "boom"},
		&Stop{},
	}
	for _, m := range msgs {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T: got %+v, want %+v", m, got, m)
		}
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	challenge := func(fields string) []byte {
		return []byte(fmt.Sprintf(`C{"version":%d,"nonce":"n",%s}`, ProtoVersion, fields))
	}
	v3 := fmt.Sprintf("protocol version 3, want %d", ProtoVersion)
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "empty"},
		{"unknown kind", []byte("Z{}"), "unknown message kind"},
		{"broken json", []byte("H{not json"), "decoding hello"},
		{"wrong version", []byte(`H{"version":99,"name":"w"}`), "protocol version"},
		{"hello version 3", []byte(`H{"version":3,"name":"w"}`), v3},
		{"challenge wrong version", []byte(`C{"version":2,"nonce":"n"}`), "protocol version"},
		{"challenge version 3", []byte(`C{"version":3,"nonce":"n"}`), v3},
		{"challenge negative ping", challenge(`"ping_ms":-1`), "negative heartbeat"},
		{"challenge negative cutoff", challenge(`"cutoff_ms":-5`), "negative heartbeat"},
		{"assign no experiment", []byte(`A{"seed":1,"shard":0,"shards":1}`), "names no experiment"},
		{"assign bad shard", []byte(`A{"experiment":"x","shard":5,"shards":2}`), "invalid shard"},
		{"assign negative job", []byte(`A{"job":-1,"experiment":"x","shard":0,"shards":1}`), "negative job"},
		{"loop without body", []byte(`L{"shard":1}`), "no loop"},
		{"loop negative shard", []byte(`L{"shard":-1,"loop":{}}`), "negative shard"},
		{"loop negative job", []byte(`L{"job":-3,"shard":1,"loop":{}}`), "negative job"},
		{"done negative shard", []byte(`D{"shard":-2}`), "negative shard"},
		{"done negative job", []byte(`D{"job":-1,"shard":0}`), "negative job"},
		{"error negative job", []byte(`E{"job":-1,"shard":0}`), "negative job"},
		{"prepare is an unknown kind", []byte(`P{"frames":[1000]}`), "unknown message kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := DecodeMessage(c.in)
			if err == nil {
				t.Fatalf("decoded %+v from malformed input", m)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// FuzzDecodeMessage asserts the decoder's safety contract: arbitrary
// frame payloads never panic, and anything accepted re-encodes and
// decodes to the same message.
func FuzzDecodeMessage(f *testing.F) {
	seedMsgs := []Message{
		&Challenge{Version: ProtoVersion, Nonce: "n0", PingMs: 2000, CutoffMs: 30000},
		&Hello{Version: ProtoVersion, Name: "w", MAC: helloMAC("", "n0", "w")},
		&Reject{Reason: "nope"},
		&Assign{Job: 1, Experiment: "fig3-1", Shard: 0, Shards: 1},
		&LoopResult{Job: 1, Shard: 0, Loop: &experiments.LoopPartial{Label: "l", N: 1}},
		&ShardDone{}, &ShardError{Msg: "x"}, &Stop{},
		&Ping{Seq: 1}, &Pong{Seq: 1},
	}
	for _, m := range seedMsgs {
		b, _ := EncodeMessage(m)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("A"))
	f.Add([]byte(`P{"frames":[1000]}`)) // a protocol v3 prepare
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encoding accepted message: %v", err)
		}
		m2, err := DecodeMessage(b)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip mismatch: %v", err)
		}
	})
}

// sumFrame builds one valid checksummed frame (chain origin 0) holding
// the given payload — the shape Recv expects on a fresh conn.
func sumFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, _, err := stats.AppendFrameSum(nil, payload, 0)
	if err != nil {
		t.Fatalf("AppendFrameSum: %v", err)
	}
	return frame
}

// TestConnRejectsGarbageStream feeds raw garbage — not valid frames,
// frames with broken checksums, or valid frames holding invalid
// messages — to a connection's Recv and expects errors, never panics or
// hangs: the satellite failure-path contract that a malformed peer
// cannot take the coordinator down.
func TestConnRejectsGarbageStream(t *testing.T) {
	badTrailer := sumFrame(t, []byte(`S{}`))
	badTrailer[len(badTrailer)-1] ^= 0x01 // flip a trailer bit
	badPayload := sumFrame(t, []byte(`S{}`))
	badPayload[stats.FrameHeaderLen] ^= 0x80 // flip a payload bit
	cases := [][]byte{
		[]byte("not a frame at all"),
		{0xff, 0xff, 0xff, 0x7f, 'x'},          // forged 2 GiB length
		{5, 0, 0, 0, 'Z', '{', '}', 'x', 'y'},  // frame with no trailer
		{1, 0, 0, 0},                           // truncated payload
		sumFrame(t, []byte("Z{}")),             // valid frame, unknown kind
		sumFrame(t, []byte("H{b")),             // valid frame, broken JSON
		badTrailer,                             // corrupted checksum trailer
		badPayload,                             // corrupted payload byte
		sumFrame(t, []byte(`H{"version":99}`)), // valid frame, wrong version
	}
	for i, in := range cases {
		a, b := net.Pipe()
		conn := newStreamConn(b)
		go func(data []byte) {
			a.Write(data)
			a.Close()
		}(in)
		done := make(chan error, 1)
		go func() {
			_, err := conn.Recv()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("case %d: garbage accepted", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("case %d: Recv hung on garbage", i)
		}
		conn.Close()
	}
}

// TestConnFrameRoundTrip pushes a large message through a stream
// connection to cover multi-chunk frame reads end to end.
func TestConnFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca := newStreamConn(a)
	cb := newStreamConn(b)
	defer ca.Close()
	defer cb.Close()
	big := &ShardError{Shard: 1, Msg: strings.Repeat("x", 200_000)}
	go func() {
		if err := ca.Send(big); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	m, err := cb.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	got, ok := m.(*ShardError)
	if !ok || !bytes.Equal([]byte(got.Msg), []byte(big.Msg)) {
		t.Fatalf("round trip mismatch: %T", m)
	}
}

// FuzzHandshake drives the worker-side handshake against an arbitrary
// first frame from the coordinator. Whatever the frame holds — a valid
// challenge, a reject, garbage JSON, a non-challenge message — the
// handshake must return an error or succeed; it must never panic and
// never wedge on the pipe.
func FuzzHandshake(f *testing.F) {
	seed := func(m Message) {
		b, err := EncodeMessage(m)
		if err != nil {
			f.Fatalf("encode seed: %v", err)
		}
		f.Add(b)
	}
	seed(&Challenge{Version: ProtoVersion, Nonce: "n", PingMs: 100, CutoffMs: 1000})
	seed(&Challenge{Version: ProtoVersion, Nonce: ""})
	seed(&Reject{Reason: "no"})
	seed(&Stop{})
	f.Add([]byte("C{"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, b := net.Pipe()
		worker := newStreamConn(b)
		go func() {
			frame, _, err := stats.AppendFrameSum(nil, payload, 0)
			if err != nil {
				a.Close() // unframeable input: hang up so Recv sees EOF fast
				return
			}
			a.Write(frame)
			io.Copy(io.Discard, a) // drain the hello so the worker's Send never wedges
		}()
		if err := Handshake(worker, "w", "tok"); err == nil {
			// Accepted: the first frame must have been a well-formed
			// challenge, or the handshake is not validating its input.
			if m, derr := DecodeMessage(payload); derr != nil {
				t.Fatalf("handshake accepted an undecodable challenge frame")
			} else if _, ok := m.(*Challenge); !ok {
				t.Fatalf("handshake accepted a %T as a challenge", m)
			}
		}
		worker.Close()
		a.Close()
	})
}
