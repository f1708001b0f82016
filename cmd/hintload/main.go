// Command hintload is the load generator for the hint-serving plane:
// it simulates a herd of hint-protocol clients over real UDP against a
// hintnode AP (or any internal/hintserve server) and reports
// throughput and ACK latency.
//
//	hintnode -listen 127.0.0.1:9999 &
//	hintload -target 127.0.0.1:9999 -clients 10000 -packets 1000000
//
// The traffic mix is configurable: the fraction of clients moving, how
// often they flip movement state, how hints are carried (movement
// header bit always; TLV trailers and standalone hint frames by
// ratio), and a fraction of deliberately corrupted frames to exercise
// the AP's decode rejection. The run is deterministic for a fixed
// -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/hintserve"
)

func main() {
	target := flag.String("target", "", "serving plane UDP address (required)")
	clients := flag.Int("clients", 1000, "simulated clients")
	firstClient := flag.Int("first-client", 0, "client numbering offset (for concurrent herds)")
	packets := flag.Int64("packets", 100000, "total data frames to send")
	senders := flag.Int("senders", 0, "sender goroutines (0 = default)")
	window := flag.Int("window", 64, "per-sender in-flight window")
	moving := flag.Float64("moving", 0.5, "fraction of clients initially moving (0 = none)")
	toggle := flag.Int("toggle", 64, "frames between movement flips per client (0 = never)")
	trailer := flag.Float64("trailer", 0.5, "fraction of data frames carrying a TLV hint trailer (0 = none)")
	hintFrames := flag.Float64("hint-frames", 0.05, "standalone hint frames per data frame (0 = none)")
	corrupt := flag.Float64("corrupt", 0, "fraction of data frames sent with a broken FCS")
	payload := flag.Int("payload", 64, "data frame payload bytes")
	seed := flag.Int64("seed", 1, "traffic randomness seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run deadline")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "usage: hintload -target host:port [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	rep, err := hintserve.RunLoad(hintserve.LoadConfig{
		Target:         *target,
		Clients:        *clients,
		FirstClient:    *firstClient,
		Packets:        *packets,
		Senders:        *senders,
		Window:         *window,
		MovingRatio:    *moving,
		TogglePeriod:   *toggle,
		TrailerRatio:   *trailer,
		HintFrameRatio: *hintFrames,
		CorruptRatio:   *corrupt,
		PayloadSize:    *payload,
		Seed:           *seed,
		Timeout:        *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		b = append(b, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// A run that acked nothing means the plane was unreachable or dead:
	// fail loudly so scripted harnesses catch it.
	if rep.Acked == 0 {
		log.Fatalf("no ACKs received from %s", *target)
	}
}
