// Command ftserved runs the fault-tolerant clustering service: an HTTP
// JSON API over the k-MDS solver with a bounded solver pool, an LRU
// solution cache, stateful cluster sessions with local failure repair,
// Prometheus-style /metrics, per-request traces at /debug/trace, and
// structured JSON logs.
//
// Usage:
//
//	ftserved [-addr :8080] [-workers N] [-queue 64] [-cache 128]
//	         [-timeout 60s] [-max-body 16777216] [-max-nodes 1048576]
//	         [-session-ttl 30m] [-drain 30s] [-log-level info]
//	         [-slow-ms 0] [-pprof]
//	         [-join host:port,...] [-advertise host:port]
//	         [-gossip-interval 1s] [-suspect-after 5s] [-evict-after 15s]
//	         [-cluster-seed 1] [-rate 0] [-burst 0]
//
// Cluster mode: -join (or a non-empty -advertise) starts the gossip
// membership layer; peers converge on the member list and route each
// solve key to its rendezvous owner. -rate enables per-client
// token-bucket admission control independently of clustering.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops
// accepting, in-flight requests and queued solves drain (bounded by
// -drain), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ftclust/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftserved:", err)
		os.Exit(1)
	}
}

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// advertiseAddr resolves the address peers should dial: the -advertise
// flag verbatim when set, else the listen address with an unspecified
// host replaced by the loopback (good enough for single-host clusters;
// multi-host deployments must pass -advertise explicitly).
func advertiseAddr(listen, advertise string) (string, error) {
	if advertise != "" {
		if _, _, err := net.SplitHostPort(advertise); err != nil {
			return "", fmt.Errorf("-advertise %q: %w", advertise, err)
		}
		return advertise, nil
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("cannot derive advertise address from -addr %q: %w", listen, err)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), nil
}

// splitSeeds parses the -join list, dropping empty segments.
func splitSeeds(join string) []string {
	var seeds []string
	for _, s := range strings.Split(join, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "max queued solves before shedding with 429")
		cacheSize  = flag.Int("cache", 128, "LRU solution-cache entries (-1 disables)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request solve deadline")
		maxBody    = flag.Int64("max-body", 16<<20, "max request body bytes")
		maxNodes   = flag.Int("max-nodes", 1<<20, "max nodes per instance")
		sessionTTL = flag.Duration("session-ttl", 30*time.Minute, "idle-session lifetime before the janitor sweeps it (negative disables)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain deadline")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		slowMs     = flag.Int("slow-ms", 0, "warn-log requests slower than this many ms (0 disables)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		join           = flag.String("join", "", "comma-separated seed peers (host:port,...) — enables cluster mode")
		advertise      = flag.String("advertise", "", "address peers should dial for this node (default: derived from -addr)")
		gossipInterval = flag.Duration("gossip-interval", time.Second, "base period between gossip shuffle rounds")
		suspectAfter   = flag.Duration("suspect-after", 0, "missed-heartbeat window before a peer turns suspect (0 = 5× gossip interval)")
		evictAfter     = flag.Duration("evict-after", 0, "missed-heartbeat window before a peer is evicted (0 = 3× suspect-after)")
		clusterSeed    = flag.Int64("cluster-seed", 1, "seed for the gossip jitter/selection RNG")
		rate           = flag.Float64("rate", 0, "per-client admitted requests/second (0 disables the token bucket)")
		burst          = flag.Int("burst", 0, "per-client token-bucket burst (0 = 2× rate, min 1)")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var clusterCfg *service.ClusterConfig
	if *join != "" || *advertise != "" {
		self, err := advertiseAddr(*addr, *advertise)
		if err != nil {
			return err
		}
		clusterCfg = &service.ClusterConfig{
			Self:           self,
			Seeds:          splitSeeds(*join),
			GossipInterval: *gossipInterval,
			SuspectAfter:   *suspectAfter,
			EvictAfter:     *evictAfter,
			Seed:           *clusterSeed,
		}
	}

	srv := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheSize:    *cacheSize,
		SolveTimeout: *timeout,
		MaxBodyBytes: *maxBody,
		MaxNodes:     *maxNodes,
		SessionTTL:   *sessionTTL,
		Logger:       logger,
		SlowRequest:  time.Duration(*slowMs) * time.Millisecond,
		Cluster:      clusterCfg,
		RatePerSec:   *rate,
		RateBurst:    *burst,
	})

	handler := srv.Handler()
	if *pprofOn {
		// pprof mounts beside the service routes; the service mux has no
		// /debug/pprof patterns, so an outer mux keeps the profiles out of
		// the instrumented path (no histogram churn from profile scrapes).
		outer := http.NewServeMux()
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr,
			"workers", *workers, "queue", *queueDepth, "cache", *cacheSize,
			"pprof", *pprofOn, "slow_ms", *slowMs, "log_level", *logLevel,
			"cluster", clusterCfg != nil, "rate", *rate)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // bind failure etc.; ErrServerClosed only follows Shutdown
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "deadline", drain.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Listener first (stops new connections, waits for in-flight
	// handlers), then the solver pool (drains queued jobs). The pool
	// drain emits the final "shutdown complete" log with totals.
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("pool drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("exited")
	return nil
}
