// Command xentry-serve runs the distributed campaign coordinator: an
// HTTP/JSON service that accepts fault-injection campaign specs, executes
// each one in process (inject.ResumeCampaign on -workers goroutines) or on
// a fleet of remote workers, and records every outcome in a durable
// write-ahead store so interrupted campaigns resume instead of
// restarting.
//
// Usage:
//
//	xentry-serve [-addr :8044] [-data DIR] [-workers N] [-fleet ADDR]
//	             [-shard-size N] [-max-attempts N] [-shard-timeout D]
//
// -workers sizes in-process campaigns. -shard-size, -max-attempts and
// -shard-timeout apply only to fleet campaigns: leases of -shard-size plan
// indices are granted to workers (0, the default, sizes each lease from
// the work left: ⌈Q/2W⌉ plans for Q plans queued and W workers serving
// the campaign, at least 64), a lease fails the campaign after
// -max-attempts failed attempts, and a lease with no batch for
// -shard-timeout is requeued (0 = a 2-minute lease).
//
// API:
//
//	POST /campaigns                submit (or resume) a campaign spec
//	GET  /campaigns                list campaign statuses
//	GET  /campaigns/{id}           one campaign's live status
//	GET  /campaigns/{id}/events    server-sent event stream of progress
//	GET  /campaigns/{id}/result    finished campaign's evaluation report
//	GET  /metrics                  Prometheus-style counters
//	GET  /debug/pprof/             runtime profiles
//
// Submit campaigns with `xentry-campaign -server http://host:8044` or any
// HTTP client.
//
// -fleet ADDR additionally opens the binary shard-protocol listener for
// remote xentry-worker processes; campaigns submitted with
// "execution": "fleet" are then executed by whatever workers are
// connected instead of in process, with all result traffic on the binary
// data plane and only control traffic on HTTP.
package main

import (
	"flag"
	"log"
	"net/http"
	"runtime"

	"xentry/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-serve: ")
	addr := flag.String("addr", ":8044", "listen address")
	data := flag.String("data", "xentry-data", "root directory for campaign result stores")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "injection workers per in-process campaign")
	shardSize := flag.Int("shard-size", 0, "plan indices per fleet lease (0 = sized from the work left)")
	maxAttempts := flag.Int("max-attempts", 3, "failed attempts per fleet lease before the campaign fails")
	shardTimeout := flag.Duration("shard-timeout", 0, "fleet lease timeout (0 = 2 minutes)")
	fleetAddr := flag.String("fleet", "",
		"fleet listener address for remote xentry-worker processes (empty = fleet execution disabled)")
	flag.Parse()

	var fleet *server.Fleet
	if *fleetAddr != "" {
		var err error
		fleet, err = server.NewFleet(*fleetAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer fleet.Close()
		log.Printf("fleet listener on %s", fleet.Addr())
	}

	s, err := server.NewServer(server.Config{
		DataDir:      *data,
		Workers:      *workers,
		ShardSize:    *shardSize,
		MaxAttempts:  *maxAttempts,
		ShardTimeout: *shardTimeout,
		Fleet:        fleet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	log.Printf("serving on %s (data %s, %d workers per in-process campaign)",
		*addr, *data, *workers)
	if err := http.ListenAndServe(*addr, s.Handler()); err != nil {
		log.Fatal(err)
	}
}
