// Command trexserve serves a TReX database over HTTP: a JSON search API
// plus a minimal HTML page. With -autopilot it also runs the online
// self-management daemon, which observes the live query stream and keeps
// the materialized RPL/ERPL set tuned to it under a disk budget while
// the server keeps answering queries.
//
// With -shards N (and optionally -replicas R) it instead serves a
// sharded scatter-gather cluster built from a corpus directory: the
// coordinator translates each query once, runs distributed TA across
// the shard engines with replica failover, and exposes /cluster for
// topology plus trex_cluster_* metrics. The front door then guards the
// coordinator, not the individual shard engines.
//
// Usage:
//
//	trexserve -db ./ieee.trexdb -addr :8080 [-writes]
//	trexserve -corpus ./corpus-dir -shards 4 -replicas 2 -addr :8080 [-writes]
//	    [-autopilot -autopilot-interval 30s -autopilot-budget 1000000000
//	     -autopilot-drift 500 -autopilot-capacity 512 -autopilot-top 16
//	     -autopilot-solver greedy -autopilot-pause 5ms]
//
// Endpoints: /search, /explain, /stats, /autopilot, /planner, /metrics,
// /slowlog, /materialize (with -writes), /. Telemetry (the /metrics
// registry, per-query traces and the slow-query log) is on by default;
// disable it with -metrics=false, tune the slow log with
// -slowlog-threshold.
//
// The telemetry-driven query planner resolves method=auto;
// -shadow-fraction tunes how often the planner's runner-up method is
// additionally run in the background to measure prediction regret.
//
// The front door is off by default. -max-inflight bounds concurrent
// query evaluation with a -queue deep admission queue (arrivals past it
// get 429, waits past -queue-timeout get 503), -deadline bounds each
// query's evaluation time (expiry returns a best-effort ranking marked
// approximate), and -cache-entries enables a result cache invalidated
// by every index write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trex"
	"trex/internal/cluster"
	"trex/internal/corpus"
	"trex/internal/webapi"
)

// serveCluster builds an N-shard, R-replica in-memory cluster from a
// corpus directory and serves the coordinator API. The front door
// (admission, deadline, result cache) sits above the coordinator, not
// the shard engines.
func serveCluster(addr, corpusDir string, shards, replicas int, writes bool, fd *trex.FrontDoorOptions, engine trex.Options) {
	if corpusDir == "" {
		log.Fatal("cluster mode (-shards/-replicas) needs -corpus <dir> (trexgen output)")
	}
	col, err := corpus.LoadDir(corpusDir)
	if err != nil {
		log.Fatalf("load corpus: %v", err)
	}
	cl, err := cluster.New(col, cluster.Options{
		Shards:    shards,
		Replicas:  replicas,
		Engine:    engine,
		FrontDoor: fd,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: webapi.NewCluster(cl, writes)}
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	fmt.Printf("serving %s on http://%s (%d docs, shards=%d replicas=%d writes=%v)\n",
		corpusDir, addr, len(col.Docs), shards, replicas, writes)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	fmt.Println("shut down cleanly")
}

func parseSolver(s string) (trex.Solver, error) {
	switch s {
	case "greedy":
		return trex.SolverGreedy, nil
	case "lp":
		return trex.SolverLP, nil
	case "optimal":
		return trex.SolverOptimal, nil
	default:
		return trex.SolverGreedy, fmt.Errorf("unknown solver %q (want greedy, lp or optimal)", s)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("trexserve: ")
	dbPath := flag.String("db", "", "TReX database file (required unless -shards/-replicas serve a corpus)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	shards := flag.Int("shards", 1, "serve a sharded cluster with this many document-space partitions (needs -corpus)")
	replicas := flag.Int("replicas", 1, "replicas per shard in cluster mode; reads fail over, writes fan out")
	corpusDir := flag.String("corpus", "", "corpus directory (trexgen output) to build the cluster from; required in cluster mode")
	writes := flag.Bool("writes", false, "enable the /materialize endpoint")
	auto := flag.Bool("autopilot", false, "enable online self-management (workload tracker + re-planning daemon)")
	autoInterval := flag.Duration("autopilot-interval", 30*time.Second, "time between autopilot planning runs")
	autoDrift := flag.Int("autopilot-drift", 0, "re-plan early after this many queries since the last run (0 = timer only)")
	autoBudget := flag.Int64("autopilot-budget", 1<<30, "disk budget in bytes for materialized redundant lists")
	autoCapacity := flag.Int("autopilot-capacity", 512, "workload tracker capacity (distinct queries)")
	autoTop := flag.Int("autopilot-top", 16, "workload snapshot size handed to the solver")
	autoSolver := flag.String("autopilot-solver", "greedy", "index-selection solver: greedy, lp, optimal")
	autoPause := flag.Duration("autopilot-pause", 5*time.Millisecond, "pause between autopilot maintenance steps (rate limit)")
	segments := flag.Bool("segments", false, "serve materialized lists from an immutable mmap'd segment (<db>.seg directory; persisted, so later opens keep it)")
	metrics := flag.Bool("metrics", true, "enable telemetry: /metrics registry, per-query traces, /slowlog")
	slowThreshold := flag.Duration("slowlog-threshold", trex.DefaultSlowQueryThreshold, "wall-time budget at or above which a query lands in /slowlog (0 disables recording)")
	slowCapacity := flag.Int("slowlog-capacity", 128, "slow-query ring buffer size")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently evaluating queries (0 = unbounded, no admission control)")
	queue := flag.Int("queue", 0, "admission queue depth beyond -max-inflight; arrivals past it are shed with 429")
	queueTimeout := flag.Duration("queue-timeout", 0, "max time a query may wait for an execution slot before a 503 (0 = 100ms default)")
	deadline := flag.Duration("deadline", 0, "default per-query deadline; expiry returns the best-effort ranking marked approximate (0 = none)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity in entries, invalidated by any index write (0 = no cache)")
	shadowFraction := flag.Float64("shadow-fraction", trex.DefaultShadowFraction, "fraction of auto-planned queries whose runner-up method also runs in the background to measure regret (0 < f <= 1; negative disables)")
	flag.Parse()
	clusterMode := *shards > 1 || *replicas > 1 || *corpusDir != ""
	if *dbPath == "" && !clusterMode {
		flag.Usage()
		os.Exit(2)
	}
	var fd *trex.FrontDoorOptions
	if *maxInflight > 0 || *deadline > 0 || *cacheEntries > 0 {
		fd = &trex.FrontDoorOptions{
			MaxInflight:  *maxInflight,
			QueueDepth:   *queue,
			QueueTimeout: *queueTimeout,
			Deadline:     *deadline,
			CacheEntries: *cacheEntries,
		}
	}

	if clusterMode {
		serveCluster(*addr, *corpusDir, *shards, *replicas, *writes, fd, trex.Options{
			SegmentLists:   *segments,
			StoreDocuments: true,
			Planner: &trex.PlannerOptions{
				ShadowFraction: *shadowFraction,
			},
			Telemetry: &trex.TelemetryOptions{
				Disabled:           !*metrics,
				SlowQueryThreshold: *slowThreshold,
				SlowLogCapacity:    *slowCapacity,
			}})
		return
	}
	eng, err := trex.Open(*dbPath, &trex.Options{
		SegmentLists: *segments,
		FrontDoor:    fd,
		Planner: &trex.PlannerOptions{
			ShadowFraction: *shadowFraction,
		},
		Telemetry: &trex.TelemetryOptions{
			Disabled:           !*metrics,
			SlowQueryThreshold: *slowThreshold,
			SlowLogCapacity:    *slowCapacity,
		}})
	if err != nil {
		log.Fatal(err)
	}
	if !*metrics {
		log.Print("telemetry disabled (-metrics=false): /metrics and /slowlog return 404")
	} else if *slowThreshold <= 0 {
		// TelemetryOptions treats <= 0 as "use the default"; an explicit
		// zero flag means "keep the registry but record nothing".
		eng.SlowLog().SetThreshold(0)
	}
	defer eng.Close()

	if *auto {
		solver, err := parseSolver(*autoSolver)
		if err != nil {
			log.Fatal(err)
		}
		err = eng.StartAutopilot(context.Background(), trex.AutopilotOptions{
			Interval:        *autoInterval,
			DriftQueries:    *autoDrift,
			DiskBudget:      *autoBudget,
			TrackerCapacity: *autoCapacity,
			TopQueries:      *autoTop,
			Solver:          solver,
			Pause:           *autoPause,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Shut down cleanly on SIGINT/SIGTERM. With the autopilot enabled the
	// server *writes* (materialize/drop during maintenance); dying
	// mid-write without stopping the daemon and flushing would leave torn
	// pages in the database, so the signal path stops the HTTP listener,
	// waits out any in-flight autopilot run, and closes the engine.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: webapi.New(eng, *writes)}
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	fmt.Printf("serving %s on http://%s (writes=%v autopilot=%v)\n", *dbPath, *addr, *writes, *auto)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	fmt.Println("shut down cleanly")
}
