package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// Headers the benchmark's client sets in traced phases, so the
// server-side span joins the client's request.
const (
	hdrOp     = "X-Bench-Op"
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// spanMiddleware records one "webapi.<op>.handler" span per request
// around the program's handler (server side, first byte in to last byte
// out of the handler).
func spanMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		sp := tr.begin("webapi."+r.Header.Get(hdrOp)+".handler", parent, req)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// client is one in-process HTTP endpoint the benchmark loads.
type client struct {
	ts *httptest.Server
	c  *http.Client
}

// newClient serves h on a local httptest server with a client keeping
// up to conns idle connections.
func newClient(h http.Handler, conns int) *client {
	ts := httptest.NewServer(h)
	return &client{ts: ts, c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns},
		Timeout:   170 * time.Second,
	}}
}

// close stops the server once in-flight requests finish.
func (c *client) close() {
	c.c.CloseIdleConnections()
	c.ts.Close()
}

// call is one completed request.
type call struct {
	status int
	body   []byte
	lat    time.Duration // request start to last body byte
}

// do sends one request and reads the whole body. In traced phases sp is
// the client span: op names the server-side span, which joins sp's
// request as its child.
func (c *client) do(method, path string, body []byte, op string, sp *open) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.ts.URL+path, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if sp != nil {
		hr.Header.Set(hdrOp, op)
		hr.Header.Set(hdrReq, strconv.FormatInt(sp.s.Req, 10))
		hr.Header.Set(hdrParent, strconv.FormatInt(sp.id(), 10))
	}
	t0 := time.Now()
	resp, err := c.c.Do(hr)
	if err != nil {
		return call{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return call{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return call{status: resp.StatusCode, body: b, lat: lat}, nil
}
