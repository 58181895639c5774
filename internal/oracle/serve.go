package oracle

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"sync"
	"testing"
	"time"
)

// lockedBuffer lets the test read stderr while run is still writing logs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// Serve runs a serving command's run function (flowserve's or
// flowrouter's) with args on an ephemeral port under a child of ctx, waits
// until it logs the address it listens on, and returns that base URL and a
// stop function that cancels the child — the path SIGINT takes — and
// returns run's error.
func Serve(ctx context.Context, t testing.TB, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(ctx)
	var stderr lockedBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), io.Discard, &stderr) }()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], func() error {
				cancel()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("the server did not shut down")
					return nil
				}
			}
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("the server exited before listening: %v\nstderr: %s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	t.Fatalf("the server did not listen in time\nstderr: %s", stderr.String())
	return "", nil
}
