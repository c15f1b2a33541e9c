// Command xentry-worker is the remote execution half of a fleet-mode
// campaign: it dials a coordinator's fleet listener (xentry-serve -fleet),
// derives the exact campaign configuration from the spec the coordinator
// hands back and installs the transition model the coordinator trained
// and shipped with it — workers never train, so every worker holds the
// model an in-process run would — then leases activation-sorted shards
// and streams their outcomes back as batched binary record frames.
//
// Usage:
//
//	xentry-worker -coordinator host:9044 -campaign ID [-name NAME]
//	              [-batch-records N] [-batch-bytes N] [-flush-interval D]
//	              [-retry-interval D] [-max-dials N]
//
// The worker is stateless from the coordinator's point of view: killing
// one mid-shard only requeues its lease, and restarting it (or adding
// more) needs nothing beyond the same two flags. The process exits 0 once
// the coordinator reports the campaign complete.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xentry/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-worker: ")
	coordinator := flag.String("coordinator", "", "coordinator fleet address (host:port), required")
	campaign := flag.String("campaign", "", "campaign ID to execute shards for, required")
	name := flag.String("name", defaultName(), "worker name shown in coordinator logs")
	batchRecords := flag.Int("batch-records", 256, "flush a batch after this many records")
	batchBytes := flag.Int("batch-bytes", 256<<10, "flush a batch after this many block bytes")
	flushInterval := flag.Duration("flush-interval", 50*time.Millisecond,
		"flush a non-empty batch at least this often (also the slowdown pause)")
	retryInterval := flag.Duration("retry-interval", 500*time.Millisecond, "pause between redials")
	maxDials := flag.Int("max-dials", 0, "give up after this many failed sessions (0 = keep retrying)")
	flag.Parse()
	if *coordinator == "" || *campaign == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := server.RunWorker(ctx, server.WorkerOptions{
		Coordinator:   *coordinator,
		Campaign:      *campaign,
		Name:          *name,
		BatchRecords:  *batchRecords,
		BatchBytes:    *batchBytes,
		FlushInterval: *flushInterval,
		RetryInterval: *retryInterval,
		MaxDials:      *maxDials,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("campaign %s complete", *campaign)
}

func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		return fmt.Sprintf("worker-%d", os.Getpid())
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
