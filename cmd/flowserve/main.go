// Command flowserve is a long-lived HTTP/JSON query server over a
// materialized flowcube. It loads a cube snapshot saved by flowquery -save
// (or builds one from a flowgen path database at startup) and answers
// concurrent read traffic: flowgraph cell queries with roll-up inference,
// cube summaries, ranked exceptions, health and metrics. POST /admin/reload
// re-reads the input file and atomically swaps the serving snapshot, so a
// rebuilt cube can be rolled forward without dropping traffic; SIGINT or
// SIGTERM drains in-flight requests and exits.
//
// Usage:
//
//	flowgen -n 20000 -out paths.fdb
//	flowquery -in paths.fdb -save cube.fcb
//	flowserve -in cube.fcb -addr :8080
//	flowserve -in cube.fcb -lazy                       # mmap, decode on touch
//	flowserve -in paths.fdb -minsup 0.01 -exceptions   # build at startup
//	flowserve -in paths.fdb -wal ingest.wal            # durable appends
//
//	curl 'localhost:8080/v1/cell?cell=d0=d0.1,d1=*&pathlevel=0'
//	curl 'localhost:8080/v1/cell?cell=d0=d0.1&format=dot'
//	curl 'localhost:8080/v1/summary'
//	curl 'localhost:8080/v1/exceptions?k=10'
//	curl 'localhost:8080/metrics'
//	curl -X POST 'localhost:8080/admin/reload'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowcube/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flowserve: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input file: a cube saved by flowquery -save, or a flowgen path database (required)")
	db := fs.String("db", "", "path database backing /admin/append when -in is a saved cube")
	addr := fs.String("addr", ":8080", "listen address")
	minsup := fs.Float64("minsup", 0.01, "iceberg minimum support δ (when building from a path database)")
	epsilon := fs.Float64("epsilon", 0.1, "minimum deviation ε for exceptions (when building)")
	tau := fs.Float64("tau", 0, "similarity threshold τ, 0 disables redundancy marking (when building)")
	exceptions := fs.Bool("exceptions", false, "mine flowgraph exceptions (when building)")
	workers := fs.Int("workers", 0, "goroutines for mining (candidate join, support counting), flowgraph construction and exception mining when building, and for each append's fold, exception re-mine and redundancy re-mark, on built and loaded cubes (0 = sequential)")
	lazy := fs.Bool("lazy", false, "mmap v2 cube snapshots and decode one cell at a time on first touch (cold open in milliseconds, bounded RSS)")
	lazyCache := fs.Int64("lazy-cache", 0, "LRU budget in bytes for -lazy's section directories and decoded cells (0 = default 64 MiB, negative = unbounded)")
	timeout := fs.Duration("timeout", server.DefaultRequestTimeout, "per-request timeout")
	cacheSize := fs.Int("cache", server.DefaultCacheSize, "response cache entries (negative disables)")
	wal := fs.String("wal", "", "write-ahead log path: journal append batches before folding and replay them on startup (empty disables durability)")
	quiet := fs.Bool("quiet", false, "suppress per-request logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}

	logger := log.New(stderr, "flowserve: ", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	loader := server.FileLoader(*in, server.BuildOptions{
		MinSupport:     *minsup,
		Epsilon:        *epsilon,
		Tau:            *tau,
		MineExceptions: *exceptions,
		Workers:        *workers,
		Lazy:           *lazy,
		LazyCacheBytes: *lazyCache,
	})
	if *db != "" {
		loader = server.WithDatabase(loader, *db)
	}

	start := time.Now()
	srv, err := server.New(loader, *in, server.Config{
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		Logger:         logger,
		WALPath:        *wal,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "flowserve: snapshot ready in %s: %d cells from %s\n",
		time.Since(start).Round(time.Millisecond), srv.Snapshot().Cube.NumCells(), *in)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The address line goes to stderr unconditionally so scripts (and the
	// e2e test) can discover a :0 port.
	fmt.Fprintf(stderr, "flowserve: listening on http://%s\n", ln.Addr())
	return srv.Serve(ctx, ln)
}
