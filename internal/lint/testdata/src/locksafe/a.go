package locksafe

import (
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
	done bool
}

func (s *server) slow() {
	s.mu.Lock()
	time.Sleep(time.Second) // want `blocking call time\.Sleep while holding s\.mu`
	s.mu.Unlock()
}

func (s *server) released() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Second)
}

func (s *server) deferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = http.Get("http://example.invalid") // want `blocking call net/http\.Get while holding s\.mu`
}

func (s *server) branchScoped(cond bool) {
	if cond {
		s.mu.Lock()
		s.mu.Unlock()
	}
	time.Sleep(time.Second) // lock taken in the branch does not leak here
}

func (s *server) drain(r io.Reader) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := io.ReadAll(r) // want `blocking call io\.ReadAll while holding s\.mu`
	return b
}

func (s *server) join() {
	s.mu.Lock()
	s.wg.Wait() // want `blocking call sync\.\(\*WaitGroup\)\.Wait while holding s\.mu`
	s.mu.Unlock()
}

func (s *server) readConfig(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := os.ReadFile(name) // want `blocking call os\.ReadFile while holding s\.mu`
	return b
}

// await parks on the cond that guards s.mu; Cond.Wait releases s.mu while
// parked, so holding it here is the required idiom, not a stall.
func (s *server) await() {
	s.mu.Lock()
	for !s.done {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// pure calls into os and net/http that do no I/O stay silent under a lock.
func (s *server) pure(err error) (bool, string, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.IsNotExist(err), os.Getenv("HOME"), http.StatusText(http.StatusOK)
}
