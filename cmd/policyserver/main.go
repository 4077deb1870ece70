// Command policyserver runs the Policy Service as a RESTful web service,
// the deployment the paper describes (there hosted on Apache Tomcat).
//
// Usage:
//
//	policyserver -addr :8765 -algorithm greedy -threshold 50 -default-streams 4
//
// The service then accepts transfer and cleanup lists on /v1/transfers and
// /v1/cleanups (JSON or XML), completion reports on the corresponding
// /completed endpoints, and exposes its state on /v1/state.
//
// With -data-dir the service keeps Policy Memory durable: every mutation
// is written ahead to a checksummed WAL (fsynced before acknowledgement
// unless -fsync=false), snapshots are taken every -snapshot-every and on
// graceful shutdown, and on boot the service recovers from the latest
// snapshot plus the WAL tail — surviving crashes mid-write.
//
// With -lease-ttl the service tracks a lease per calling workflow and a
// periodic scan (-lease-scan-every) reclaims the holdings of workflows that
// crash without reporting: their in-flight transfers are failed, streams
// released, reference counts dropped, and duplicate suppression lifted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

func main() {
	var (
		addr           = flag.String("addr", ":8765", "listen address")
		algorithm      = flag.String("algorithm", "greedy", "allocation algorithm: greedy, balanced, none")
		threshold      = flag.Int("threshold", 50, "max parallel streams between a host pair")
		defaultStreams = flag.Int("default-streams", 4, "streams assigned to transfers that request none")
		clusterFactor  = flag.Int("cluster-factor", 1, "workflow clustering factor (balanced allocation)")
		role           = flag.String("role", "", "failover role: primary or standby (empty disables epoch fencing)")
		peer           = flag.String("peer", "", "base URL of the other half of the primary/standby pair")
		syncInterval   = flag.Duration("sync-interval", 10*time.Second, "standby sync period")
		quiet          = flag.Bool("quiet", false, "disable request logging")
		debug          = flag.Bool("debug", false, "mount net/http/pprof profiling handlers and /debug/vars")
		traceOut       = flag.String("trace-out", "", "stream the JSONL transfer-lifecycle event log to this file")
		decisionLog    = flag.String("decision-log", "", "stream decision provenance records (JSONL) to this file")
		dataDir        = flag.String("data-dir", "", "persist Policy Memory to this directory (WAL + snapshots); empty runs in memory")
		snapshotEvery  = flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval when -data-dir is set (0 disables the ticker)")
		fsync          = flag.Bool("fsync", true, "fsync the WAL before acknowledging each mutation (-data-dir only)")
		leaseTTL       = flag.Float64("lease-ttl", 0, "workflow lease TTL in seconds; 0 disables lease-based orphan reclamation")
		leaseScanEvery = flag.Duration("lease-scan-every", 5*time.Second, "lease expiry scan period when -lease-ttl is set")
		bundlePath     = flag.String("bundle", "", "policy bundle (JSON) to activate on boot; flag-derived tunables apply until it takes effect")
		maxQueue       = flag.Int("max-queue", 256, "admission control: max queued requests per class before shedding with 429; 0 disables admission control")
		queueWait      = flag.Duration("queue-wait", 250*time.Millisecond, "admission control: max time a request may wait queued before shedding")
		batchMax       = flag.Int("batch-max", 32, "admission control: max mutations coalesced into one group-commit batch")
	)
	flag.Parse()

	cfg := policy.DefaultConfig()
	cfg.Algorithm = policy.Algorithm(*algorithm)
	cfg.DefaultThreshold = *threshold
	cfg.DefaultStreams = *defaultStreams
	cfg.ClusterFactor = *clusterFactor
	cfg.LeaseTTL = *leaseTTL

	svc, err := policy.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "policyserver: %v\n", err)
		os.Exit(1)
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "policyserver ", log.LstdFlags)
	}
	var tracer *obs.JSONLTracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyserver: open trace log: %v\n", err)
			os.Exit(1)
		}
		tracer = obs.NewJSONLTracer(f)
		defer func() {
			if err := tracer.Close(); err != nil {
				log.Printf("close trace log: %v", err)
			}
		}()
		log.Printf("tracing transfer lifecycle events to %s", *traceOut)
	}

	reg := obs.NewRegistry()
	if tracer != nil {
		tracer.SetDropCounter(reg.Counter("obs_trace_dropped_total",
			"Trace events discarded because the JSONL sink failed.").With())
	}

	if *decisionLog != "" {
		f, err := os.Create(*decisionLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyserver: open decision log: %v\n", err)
			os.Exit(1)
		}
		svc.SetDecisionSink(f)
		defer func() {
			if err := svc.FlushDecisions(); err != nil {
				log.Printf("flush decision log: %v", err)
			}
			f.Close()
		}()
		log.Printf("streaming decision provenance records to %s", *decisionLog)
	}

	// Recover Policy Memory from the data directory (latest snapshot plus
	// WAL tail) before the listener opens, then keep logging mutations.
	var ps *durable.PolicyStore
	if *dataDir != "" {
		opts := durable.Options{
			Fsync:   *fsync,
			Metrics: obs.NewWALMetrics(reg),
		}
		if tracer != nil {
			opts.Tracer = tracer
		}
		var stats durable.RecoveryStats
		ps, stats, err = durable.OpenPolicyStore(*dataDir, svc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyserver: open data dir %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		log.Printf("recovered policy memory from %s (snapshot seq %d, %d WAL records replayed, log at seq %d, fsync=%v)",
			*dataDir, stats.SnapshotSeq, stats.Replayed, stats.LastSeq, *fsync)
	}

	// Activate the boot bundle after recovery: if the WAL already replayed
	// this exact bundle (same checksum) the activation is a no-op and
	// appends nothing, so repeated boots with the same -bundle file do not
	// grow the log.
	if *bundlePath != "" {
		data, err := os.ReadFile(*bundlePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyserver: read bundle %s: %v\n", *bundlePath, err)
			os.Exit(1)
		}
		info, err := policy.Call[*policy.BundleInfo](context.Background(), svc, policy.OpActivateBundle, policy.BundleOp{Doc: data})
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyserver: activate bundle %s: %v\n", *bundlePath, err)
			os.Exit(1)
		}
		log.Printf("policy bundle %s active (checksum %.12s, algorithm=%s)", info.Version, info.Checksum, info.Algorithm)
	}

	// A typed-nil *JSONLTracer must not reach the interface parameter.
	var tr obs.Tracer
	if tracer != nil {
		tr = tracer
	}
	api := policyhttp.NewServerWith(svc, logger, reg, tr)
	if ps != nil {
		api.SetDurable(ps)
	}

	var peerClient *policyhttp.Client
	if *peer != "" {
		peerClient = policyhttp.NewClient(*peer)
	}
	switch policyhttp.Role(*role) {
	case policyhttp.RoleNone:
	case policyhttp.RolePrimary, policyhttp.RoleStandby:
		api.SetFailover(policyhttp.Role(*role), peerClient)
		log.Printf("failover role %s (epoch %d, peer %q); promote with POST /v1/promote or `policyctl promote`",
			*role, svc.Epoch(), *peer)
	default:
		fmt.Fprintf(os.Stderr, "policyserver: unknown -role %q (want primary or standby)\n", *role)
		os.Exit(1)
	}
	// Admission control: bounded queues in front of the policy core, with
	// overload shed as 429 + Retry-After before any side effect and
	// mutations coalesced into group-commit batches.
	var ctl *admit.Controller
	if *maxQueue > 0 {
		ctl = policyhttp.NewAdmissionController(svc, admit.Config{
			MaxQueue: *maxQueue,
			MaxWait:  *queueWait,
			BatchMax: *batchMax,
		})
		ctl.Instrument(reg)
		api.SetAdmission(ctl)
		log.Printf("admission control enabled (max-queue=%d queue-wait=%s batch-max=%d)", *maxQueue, *queueWait, *batchMax)
	} else {
		log.Printf("admission control disabled (-max-queue 0)")
	}
	var handler http.Handler = api
	if *debug {
		// Profiling and raw-variable endpoints share the listener but stay
		// off the /v1 API surface unless explicitly enabled.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", obs.VarsHandler(reg))
		handler = mux
		log.Printf("debug endpoints enabled: /debug/pprof/ and /debug/vars")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Any fenced node with a peer runs the server's own syncer, gated on its
	// current role: a standby keeps itself warm from the peer, a primary
	// idles. The gate starts it syncing when a demotion flips this server
	// to standby — including a node that booted as primary and was later
	// deposed, which would otherwise stay cold until a restart. A promotion
	// catches up through the same syncer, from the same replica cursor.
	if syncer := api.Syncer(); syncer != nil {
		if *syncInterval > 0 {
			syncer.Interval = *syncInterval
		}
		syncer.Instrument(reg)
		syncer.OnSync = func(err error) {
			if err != nil {
				log.Printf("standby sync: %v", err)
			}
		}
		go syncer.Run(ctx)
		if policyhttp.Role(*role) == policyhttp.RoleStandby {
			log.Printf("warm standby of %s (sync every %s)", *peer, *syncInterval)
		} else {
			log.Printf("peer syncer armed (activates on demotion, sync every %s)", *syncInterval)
		}
	}

	// The policy core never reads the wall clock: its lease deadlines live
	// on a logical clock that only moves through the logged advance_clock
	// mutation (so durable replicas replay to identical state). The binary
	// is where wall time enters — a ticker feeds wall-derived seconds into
	// the clock, expiring the leases of workflows that stopped renewing.
	if *leaseTTL > 0 && *leaseScanEvery > 0 {
		advanceClock := func() (*policy.ClockAdvance, error) {
			now := float64(time.Now().UnixMilli()) / 1000
			return policy.Call[*policy.ClockAdvance](context.Background(), svc, policy.OpAdvanceClock, policy.ClockOp{Now: now})
		}
		// A standby's clock moves only with its primary's log: a local
		// advance would diverge it from the primary, so it skips the scans.
		standby := func() bool { return api.Role() == policyhttp.RoleStandby }
		// Catch up after recovery: anything that expired while the server
		// was down is reclaimed before the listener opens.
		if !standby() {
			if adv, err := advanceClock(); err != nil {
				fmt.Fprintf(os.Stderr, "policyserver: initial lease scan: %v\n", err)
				os.Exit(1)
			} else if len(adv.Expired) > 0 {
				log.Printf("startup lease scan: expired %v, reclaimed %d transfer(s), %d stream(s)",
					adv.Expired, adv.ReclaimedTransfers, adv.ReclaimedStreams)
			}
		}
		go func() {
			t := time.NewTicker(*leaseScanEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if standby() {
						continue
					}
					adv, err := advanceClock()
					if err != nil {
						log.Printf("lease scan: %v", err)
						continue
					}
					if len(adv.Expired) > 0 {
						log.Printf("lease scan: expired %v, reclaimed %d transfer(s), %d stream(s)",
							adv.Expired, adv.ReclaimedTransfers, adv.ReclaimedStreams)
					}
				}
			}
		}()
		log.Printf("lease liveness enabled (ttl=%.1fs, scan every %s)", *leaseTTL, *leaseScanEvery)
	}

	if ps != nil && *snapshotEvery > 0 {
		go func() {
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if info, err := ps.SnapshotNow(); err != nil {
						log.Printf("periodic snapshot: %v", err)
					} else {
						log.Printf("snapshot at seq %d (%d bytes, %.3fs)", info.Seq, info.Bytes, info.DurationSeconds)
					}
				}
			}
		}()
	}

	go func() {
		<-ctx.Done()
		log.Printf("shutdown signal received, draining requests")
		drainAndShutdown(srv, ctl, 5*time.Second)
	}()

	log.Printf("policy service listening on %s (algorithm=%s threshold=%d default-streams=%d)",
		*addr, cfg.Algorithm, cfg.DefaultThreshold, cfg.DefaultStreams)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("policyserver: %v", err)
	}
	// Requests are drained; seal the data directory with a final snapshot
	// so the next boot restores without replaying the whole tail. The
	// tracer (if any) is flushed and closed by its deferred Close above.
	if ps != nil {
		if info, err := ps.SnapshotNow(); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("final snapshot at seq %d (%d bytes)", info.Seq, info.Bytes)
		}
		if err := ps.Close(); err != nil {
			log.Printf("close durable store: %v", err)
		}
	}
	log.Printf("policy service stopped")
}
