package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"strings"
	"time"
)

// client is one closed-loop role: a single keep-alive connection on which
// the next request goes out only after the previous body has been read to
// the end. It speaks HTTP/1.1 on the socket itself, from the calling
// goroutine: net/http's client hands every request to two goroutines of its
// own, and on this two-core host those hand-overs cost a third of the
// request rate and most of its steadiness (3400 answers a second, 2700 to
// 3900 from one second to the next, against 4400 and 4350 to 4730 for the
// same URL on the same server). It counts the connections it dials, so a
// run can assert that keep-alive reuse held (connections opened == roles).
type client struct {
	host  string // 127.0.0.1:port
	conn  net.Conn
	rd    *bufio.Reader
	dials int
	req   bytes.Buffer
	buf   bytes.Buffer
}

// newClient makes a client for the server at base (http://host:port). The
// connection is dialled by the first request.
func newClient(base string) *client {
	return &client{host: strings.TrimPrefix(base, "http://")}
}

// do sends one request and reads the whole body. The returned body is valid
// until the next call. The latency covers send to last body byte. After an
// error the connection is dropped and the next call dials a new one.
func (c *client) do(method, path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.host)
		if err != nil {
			return 0, nil, 0, err
		}
		c.conn, c.rd = conn, bufio.NewReader(conn)
		c.dials++
	}
	c.req.Reset()
	fmt.Fprintf(&c.req, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.host)
	if body != nil {
		fmt.Fprintf(&c.req, "Content-Length: %d\r\n", len(body))
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)

	start := time.Now()
	if _, err = c.conn.Write(c.req.Bytes()); err != nil {
		c.close()
		return 0, nil, time.Since(start), err
	}
	r, err := http.ReadResponse(c.rd, nil)
	if err != nil {
		c.close()
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	_ = r.Body.Close() // fully read; nothing left to report
	lat = time.Since(start)
	if err != nil || r.Close {
		c.close()
	}
	return r.StatusCode, c.buf.Bytes(), lat, err
}

func (c *client) get(path string) (int, []byte, time.Duration, error) {
	return c.do(http.MethodGet, path, nil)
}

// close drops the connection, if any.
func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing in flight; the server sees EOF
		c.conn, c.rd = nil, nil
	}
}

// The slices of the server's JSON bodies the checks read.
type cellBody struct {
	Cell       string `json:"cell"`
	Provenance string `json:"provenance"`
	Exact      bool   `json:"exact"`
	Source     struct {
		Count int64 `json:"count"`
	} `json:"source"`
	Graph struct {
		Paths int64 `json:"paths"`
	} `json:"graph"`
}

type queryBody struct {
	Cells []cellBody `json:"cells"`
}

type summaryBody struct {
	Cells   int `json:"cells"`
	Cuboids int `json:"cuboids"`
}

// checker verifies response bodies against the oracle. Bodies repeat (a
// cached answer is served byte for byte), so a body whose hash equals that
// of the last one verified for the same URL is accepted without parsing it
// again; every other body is parsed in full. Without this the client's JSON
// decoding, not the server, would set serve_hot's request rate.
type checker struct {
	oracle  map[string]int64
	cells   int // expected /v1/summary census
	cuboids int
	// atLeast relaxes the count check to ">= oracle" for cells that grow
	// while a writer appends beside the reader.
	atLeast bool
	seed    maphash.Seed
	seen    map[string]uint64
}

func newChecker(oracle map[string]int64, cells, cuboids int) *checker {
	return &checker{oracle: oracle, cells: cells, cuboids: cuboids, seed: maphash.MakeSeed(), seen: make(map[string]uint64)}
}

func (ck *checker) check(req *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", req.url, status, body)
	}
	sum := maphash.Bytes(ck.seed, body)
	if prev, ok := ck.seen[req.url]; ok && prev == sum {
		return nil
	}
	if err := ck.parse(req, body); err != nil {
		return fmt.Errorf("%s: %v", req.url, err)
	}
	ck.seen[req.url] = sum
	return nil
}

func (ck *checker) parse(req *request, body []byte) error {
	switch req.class {
	case "summary":
		var s summaryBody
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if ck.atLeast {
			if s.Cells < ck.cells {
				return fmt.Errorf("summary census %d cells, want at least %d", s.Cells, ck.cells)
			}
			return nil
		}
		if s.Cells != ck.cells || s.Cuboids != ck.cuboids {
			return fmt.Errorf("summary census %d cells in %d cuboids, want %d in %d", s.Cells, s.Cuboids, ck.cells, ck.cuboids)
		}
		return nil
	case "v1_cell":
		var c cellBody
		if err := json.Unmarshal(body, &c); err != nil {
			return err
		}
		return ck.cell(req, c, "")
	}
	var q queryBody
	if err := json.Unmarshal(body, &q); err != nil {
		return err
	}
	if req.class == "v2_multi" {
		if len(q.Cells) != req.wantCells {
			return fmt.Errorf("%d cells, want %d", len(q.Cells), req.wantCells)
		}
		for _, c := range q.Cells {
			if err := ck.cell(nil, c, ""); err != nil {
				return err
			}
		}
		return nil
	}
	if len(q.Cells) != 1 {
		return fmt.Errorf("%d cells, want 1", len(q.Cells))
	}
	return ck.cell(req, q.Cells[0], req.wantProv)
}

// cell checks one answered cell: exact, the right cell and provenance when
// the request fixes them, and the oracle's path count both as the source
// count and as the flowgraph's total.
func (ck *checker) cell(req *request, c cellBody, prov string) error {
	if !c.Exact {
		return fmt.Errorf("cell %s not exact", c.Cell)
	}
	if req != nil && c.Cell != req.wantCell {
		return fmt.Errorf("answered cell %s, want %s", c.Cell, req.wantCell)
	}
	if prov != "" && c.Provenance != prov {
		return fmt.Errorf("cell %s provenance %q, want %q", c.Cell, c.Provenance, prov)
	}
	want, ok := ck.oracle[c.Cell]
	if !ok {
		return fmt.Errorf("cell %s unknown to the oracle", c.Cell)
	}
	if c.Source.Count != c.Graph.Paths {
		return fmt.Errorf("cell %s source count %d but flowgraph holds %d paths", c.Cell, c.Source.Count, c.Graph.Paths)
	}
	if c.Source.Count != want && !(ck.atLeast && c.Source.Count > want) {
		return fmt.Errorf("cell %s has %d paths, oracle says %d", c.Cell, c.Source.Count, want)
	}
	return nil
}

// loopResult is what one closed-loop role measured in its window.
type loopResult struct {
	latMs     []float64 // every checked answer of the window
	byClass   map[string][]float64
	failed    int
	firstErr  error
	completed int
	// bySecond holds the same latencies by the whole second of the window
	// in which the answer arrived.
	bySecond [][]float64
}

// quietest returns the number of answers in, and their median latency over,
// the whole second of the window that saw the most answers. The host's
// neighbours slow every process for seconds at a time and never speed one
// up, so the busiest second is the least disturbed measurement a window
// holds; README.md has the data behind this.
func (lr loopResult) quietest() (perSecond, p50Ms float64) {
	best := 0
	for i, lat := range lr.bySecond {
		if len(lat) > len(lr.bySecond[best]) {
			best = i
		}
	}
	return float64(len(lr.bySecond[best])), median(lr.bySecond[best])
}

// closedLoop drives stream through c until the deadline and checks every
// response. The next request goes out think after the previous answer has
// been read to the end. A window holds at least one whole second wherever
// quietest is asked for.
func closedLoop(ctx context.Context, c *client, st *stream, ck *checker, window, think time.Duration) loopResult {
	res := loopResult{byClass: make(map[string][]float64), bySecond: make([][]float64, int(window/time.Second))}
	start := time.Now()
	deadline := start.Add(window)
	for ; time.Now().Before(deadline) && ctx.Err() == nil; time.Sleep(think) {
		req := st.next()
		status, body, lat, err := c.get(req.url)
		if err == nil {
			err = ck.check(req, status, body)
		}
		res.completed++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		res.latMs = append(res.latMs, ms(lat))
		res.byClass[req.class] = append(res.byClass[req.class], ms(lat))
		if sec := int(time.Since(start) / time.Second); sec < len(res.bySecond) {
			res.bySecond[sec] = append(res.bySecond[sec], ms(lat))
		}
	}
	return res
}
