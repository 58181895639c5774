// Command flowrouter is the stateless query router for a sharded flowcube
// cluster. It loads only the snapshot preamble of the unsplit cube (the
// hierarchies, plan, and thresholds — no cells), validates at startup that
// every shard serves a split of that snapshot, and then routes: cell
// queries go to the owning shard with a roll-up scatter fallback, summary
// and exception queries scatter-gather with per-shard timeouts and partial
// degradation, and appends fan to every shard all-or-nothing. Responses
// are byte-identical to a single flowserve over the unsplit cube.
//
// Usage:
//
//	flowshard -in cube.fcb -shards 2 -out shards/
//	flowserve -in shards/shard-0-of-2.fcb -db paths.fdb -shard 0/2 -addr :8081 &
//	flowserve -in shards/shard-1-of-2.fcb -db paths.fdb -shard 1/2 -addr :8082 &
//	flowrouter -meta cube.fcb -shards http://localhost:8081,http://localhost:8082 -addr :8080
//
//	curl 'localhost:8080/v1/cell?cell=d0=d0.1,d1=*&pathlevel=0'
//	curl 'localhost:8080/v1/summary'
//	curl 'localhost:8080/v1/exceptions?k=10'
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
	"strings"
	"syscall"
	"time"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flowrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	meta := fs.String("meta", "", "the unsplit cube snapshot; only its preamble is loaded (required)")
	shards := fs.String("shards", "", "comma-separated shard base URLs, in split order (required)")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", server.DefaultRequestTimeout, "per-request timeout")
	shardTimeout := fs.Duration("shard-timeout", cluster.DefaultShardTimeout, "per-shard timeout for scatter-gather reads")
	source := fs.String("source", "", `"source" reported in responses (default: the -meta path)`)
	quiet := fs.Bool("quiet", false, "suppress per-request logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *meta == "" {
		fs.Usage()
		return fmt.Errorf("-meta is required")
	}
	shardURLs := splitURLs(*shards)
	if len(shardURLs) == 0 {
		fs.Usage()
		return fmt.Errorf("-shards is required")
	}

	f, err := os.Open(*meta)
	if err != nil {
		return err
	}
	metaCube, err := core.LoadMeta(f)
	_ = f.Close() // read-only; close errors carry no information
	if err != nil {
		return fmt.Errorf("load meta %s: %w", *meta, err)
	}

	logger := log.New(stderr, "flowrouter: ", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	if *source == "" {
		*source = *meta
	}
	rt, err := cluster.NewRouter(metaCube, shardURLs, cluster.RouterConfig{
		Source:         *source,
		RequestTimeout: *timeout,
		ShardTimeout:   *shardTimeout,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	vctx, cancel := context.WithTimeout(ctx, *shardTimeout+time.Second)
	err = rt.Validate(vctx)
	cancel()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "flowrouter: %d shards validated in %s\n",
		len(shardURLs), time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The address line goes to stderr unconditionally so scripts (and the
	// e2e test) can discover a :0 port.
	fmt.Fprintf(stderr, "flowrouter: listening on http://%s\n", ln.Addr())
	return rt.Serve(ctx, ln)
}

// splitURLs parses the comma-separated -shards value, dropping empties so a
// trailing comma is harmless.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
