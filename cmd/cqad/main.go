// Command cqad is the CERTAINTY serving daemon: an HTTP/JSON API over
// the plan-cached engine (internal/server), with admission control,
// per-request timeouts, metrics, and graceful shutdown.
//
// Usage:
//
//	cqad [-addr :8080] [-dbdir dir] [-data dir]
//	     [-max-inflight 64] [-timeout 10s] [-max-body 1048576]
//	     [-checkpoint-every 1024] [-fsync] [-drain-timeout 30s]
//	     [-pprof-addr :6060] [-trace-sample 1] [-trace-buffer 256]
//	     [-slow-query 0] [-watch-heartbeat 3s] [-addr-file path]
//
// The database directory is scanned non-recursively for *.db files in
// the cqa fact syntax (one fact per line); each becomes a preloaded
// database addressable by its base name, e.g. people.db → "people".
//
// With -data, named databases are durable: every write is WAL-logged
// under the data directory, periodically checkpointed, and recovered on
// restart (internal/store; see docs/STORE.md). Databases preloaded from
// -dbdir are seeded into the data directory on first boot; after that
// the recovered store wins. Without -data, named databases are
// memory-only versioned stores. Each database is one store; partitioning
// by block key is the -route tier's (docs/SHARDING.md).
//
// The alternative serving role:
//
//	cqad -route http://s0,http://s1[,...]
//
// turns the daemon into the scatter-gather tier over N shard servers
// (writes partition by block owner, reads scatter). An empty entry in
// the list is a usage error (exit 2).
//
// Every request carries a trace ID (minted at this daemon or joined
// from the X-CQA-Trace request header); finished traces are retained in
// a ring served at GET /debug/traces, -slow-query logs traces over the
// threshold, and -trace-sample tunes what fraction of fresh root
// requests record (joined traces always do). /metrics serves the
// metrics registry as Prometheus text exposition and /v1/stats serves
// the same registry as JSON. See docs/OBSERVABILITY.md.
//
// Endpoints: POST /v1/classify, /v1/certain, /v1/watch,
// /v1/db/{create,insert,delete}; GET /v1/db/info, /v1/db/facts,
// /v1/shards, /v1/stats, /healthz, /readyz, /metrics, /debug/traces.
// Profiling (/debug/pprof, runtime memstats at /debug/pprof/heap?debug=1)
// is served only on the separate -pprof-addr listener. See
// docs/SERVING.md.
//
// On SIGINT/SIGTERM the daemon flips /readyz to 503, drains in-flight
// requests (bounded by -drain-timeout), then closes the engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/metrics"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/server"
	"cqa/internal/store"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		log.Fatalf("cqad: %v", err)
	}
}

// config is the parsed flag set, separated from flag handling so tests
// can drive run-adjacent helpers directly.
type config struct {
	addr         string
	addrFile     string
	dbDir        string
	dataDir      string
	checkpoint   int
	fsync        bool
	maxInFlight  int
	timeout      time.Duration
	drainTimeout time.Duration
	maxBody      int64
	pprofAddr    string
	traceSample  float64
	traceBuffer  int
	slowQuery    time.Duration
	watchHB      time.Duration
	route        string
}

func parseFlags(args []string, errw *os.File) (config, error) {
	var c config
	fs := flagSet(&c, errw)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(errw, "cqad: unexpected arguments: %v\n", fs.Args())
		return config{}, errors.New("unexpected arguments")
	}
	for i, u := range splitList(c.route) {
		if u == "" {
			fmt.Fprintf(errw, "cqad: -route entry %d of %q is empty\n", i+1, c.route)
			return config{}, errors.New("empty -route entry")
		}
	}
	return c, nil
}

// flagSet defines cqad's flags over c, writing usage and errors to errw.
func flagSet(c *config, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("cqad", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts)")
	fs.StringVar(&c.dbDir, "dbdir", "", "directory of *.db files preloaded as named databases")
	fs.StringVar(&c.dataDir, "data", "", "data directory for durable named databases (WAL + snapshots); empty = memory-only")
	fs.IntVar(&c.checkpoint, "checkpoint-every", 0, "WAL records between snapshot checkpoints (0 = store default)")
	fs.BoolVar(&c.fsync, "fsync", false, "fsync the WAL on every write batch (durability over throughput)")
	fs.IntVar(&c.maxInFlight, "max-inflight", 0, "max concurrently admitted API requests before shedding with 429 (0 = 64)")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-request timeout (0 = 10s)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	fs.Int64Var(&c.maxBody, "max-body", 0, "max request body bytes before 413 (0 = 1 MiB)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof on a separate listener at this address (keeps profiling off the API port)")
	fs.Float64Var(&c.traceSample, "trace-sample", 1, "probability a fresh root request records a trace (1 = all, 0 = disabled; joined traces always record)")
	fs.IntVar(&c.traceBuffer, "trace-buffer", 0, "finished traces retained for GET /debug/traces (0 = 256)")
	fs.DurationVar(&c.slowQuery, "slow-query", 0, "log any trace slower than this duration (0 = off)")
	fs.DurationVar(&c.watchHB, "watch-heartbeat", 0, "/v1/watch heartbeat cadence (0 = 3s)")
	fs.StringVar(&c.route, "route", "", "comma-separated shard server URLs: serve as the scatter-gather router over them")
	return fs
}

func run(cfg config) error {
	dbs, err := loadDatabases(cfg.dbDir)
	if err != nil {
		return err
	}
	if cfg.dbDir != "" {
		names := make([]string, 0, len(dbs))
		for n := range dbs {
			names = append(names, n)
		}
		log.Printf("cqad: preloaded %d database(s) from %s: %s", len(dbs), cfg.dbDir, strings.Join(names, ", "))
	}

	// The registry and tracer exist before the stores so WAL fsyncs and
	// recovery-era writes land in the same instruments the server
	// exposes at /metrics and /debug/traces.
	reg := metrics.NewRegistry()
	fsyncLatency := reg.Histogram("wal_fsync_latency")
	sample := cfg.traceSample
	if sample <= 0 {
		sample = -1 // NewTracer treats the zero value as "record everything"
	}
	tracer := obs.NewTracer(obs.TracerOptions{
		Sample:    sample,
		Buffer:    cfg.traceBuffer,
		SlowQuery: cfg.slowQuery,
		Logf:      log.Printf,
	})

	var stores *store.Set
	if cfg.dataDir != "" {
		stores, err = store.OpenSet(store.Options{
			Dir:             cfg.dataDir,
			CheckpointEvery: cfg.checkpoint,
			Sync:            cfg.fsync,
			OnFsync:         fsyncLatency.Observe,
		})
		if err != nil {
			return err
		}
		defer stores.CloseAll()
		if n := len(stores.Names()); n > 0 {
			log.Printf("cqad: recovered %d durable database(s) from %s: %s",
				n, cfg.dataDir, strings.Join(stores.Names(), ", "))
		}
		// First boot: each preloaded database becomes a durable store born
		// holding it, written as its first checkpoint. On later boots the
		// recovered store wins and the .db file is only the original seed.
		for name, d := range dbs {
			if stores.Get(name) != nil {
				continue
			}
			if _, err := stores.Create(context.Background(), name, d, nil); err != nil {
				return fmt.Errorf("seeding %s: %w", name, err)
			}
		}
		dbs = nil // everything is in the set now
	}

	eng := engine.New(engine.Options{})
	baseOpts := server.Options{
		Engine:         eng,
		MaxInFlight:    cfg.maxInFlight,
		RequestTimeout: cfg.timeout,
		MaxBodyBytes:   cfg.maxBody,
		WatchHeartbeat: cfg.watchHB,
		Metrics:        reg,
		Tracer:         tracer,
	}

	var srv *server.Server
	var handler http.Handler
	if cfg.route != "" {
		// Router role: no local stores, scatter-gather over shard servers.
		shards := splitList(cfg.route)
		rt := server.NewRouter(server.RouterOptions{Shards: shards, Options: baseOpts})
		srv, handler = rt.Inner(), rt.Handler()
		log.Printf("cqad: routing over %d shard server(s)", len(shards))
	} else {
		baseOpts.Databases = dbs
		baseOpts.Stores = stores
		srv = server.New(baseOpts)
		handler = srv.Handler()
	}

	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("cqad: pprof on %s", pln.Addr())
		go func() {
			// Best-effort: profiling dies with the process, no drain needed.
			if err := http.Serve(pln, pmux); err != nil {
				log.Printf("cqad: pprof listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("cqad: listening on %s", ln.Addr())
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("cqad: %s received, draining (max %s)", sig, cfg.drainTimeout)
	case err := <-errCh:
		return err // listener failed before any signal
	}

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("cqad: drain incomplete: %v", err)
	}
	eng.Close()
	if stores != nil {
		if err := stores.CloseAll(); err != nil {
			log.Printf("cqad: closing stores: %v", err)
		}
	}
	log.Printf("cqad: shutdown complete; final stats: %s", eng.Stats())
	return nil
}

// splitList splits a comma-separated flag value, trimming space.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// loadDatabases reads every *.db file directly under dir (base name sans
// extension → database). An empty dir means no preloaded databases.
func loadDatabases(dir string) (map[string]*db.Database, error) {
	if dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	dbs := make(map[string]*db.Database)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".db") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		d, err := parse.Database(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		dbs[strings.TrimSuffix(e.Name(), ".db")] = d
	}
	return dbs, nil
}
