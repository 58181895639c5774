package locksafe

import (
	"net/http"
	"sync"
	"time"
)

type server struct {
	mu sync.Mutex
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
