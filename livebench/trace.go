package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/installer"
)

// httpSpan is one client-side HTTP request into the frontend or a peer
// relay, from RoundTrip to the response body's Close.
type httpSpan struct {
	kind       string // kickstart, manifest, relays, package.frontend, package.peer, facts, other
	nodeIP     string // the node that issued it ("" when unattributed)
	start, end time.Time
	reused     bool // rode a pooled connection
	status     int  // 0 on a transport error
}

// tracer is the traced run's http.DefaultTransport: an identically
// configured clone of the original that counts dials and records one span
// per request. The installer's default client has a nil Transport, so every
// install picks it up without any change to the program.
//
// Requests carry no node identity except the kickstart GET and the facts
// POST (the client IP header), so the tracer attributes the rest by the
// goroutine that issues them: one install runs on one goroutine from lease
// to up, and its kickstart GET comes first.
type tracer struct {
	base     *http.Transport
	original http.RoundTripper
	frontend string // host:port of the frontend under test
	dials    atomic.Int64

	mu    sync.Mutex
	spans []httpSpan
	byGID map[uint64]string // goroutine → node IP
}

func newTracer() *tracer {
	t := &tracer{original: http.DefaultTransport, byGID: map[uint64]string{}}
	t.base = http.DefaultTransport.(*http.Transport).Clone()
	dial := t.base.DialContext
	t.base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.dials.Add(1)
		return dial(ctx, network, addr)
	}
	return t
}

// install points http.DefaultTransport at the tracer for the frontend
// listening at frontend (host:port). Call it only while no request is in
// flight; uninstall restores the original.
func (t *tracer) install(frontend string) {
	t.mu.Lock()
	t.frontend = frontend
	t.mu.Unlock()
	http.DefaultTransport = t
}

func (t *tracer) uninstall() {
	http.DefaultTransport = t.original
	t.base.CloseIdleConnections()
}

// take returns and clears the recorded spans and dial count.
func (t *tracer) take() ([]httpSpan, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	t.byGID = map[uint64]string{}
	return spans, t.dials.Swap(0)
}

func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := &httpSpan{start: time.Now()}
	gid := goid()
	t.mu.Lock()
	if ip := req.Header.Get(installer.ClientIPHeader); ip != "" {
		t.byGID[gid] = ip
	}
	sp.nodeIP = t.byGID[gid]
	sp.kind = classify(req, t.frontend)
	t.mu.Unlock()
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { sp.reused = info.Reused },
	})
	resp, err := t.base.RoundTrip(req.WithContext(ctx))
	if err != nil {
		t.record(sp)
		return nil, err
	}
	sp.status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.record(sp) }}
	return resp, nil
}

func (t *tracer) record(sp *httpSpan) {
	sp.end = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// spanBody ends its request's span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// classify names the layer a request enters.
func classify(req *http.Request, frontend string) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/kickstart.cgi"):
		return "kickstart"
	case strings.HasSuffix(p, "/RedHat/base/manifest"):
		return "manifest"
	case p == "/v1/relays":
		return "relays"
	case p == "/v1/facts":
		return "facts"
	case strings.Contains(p, "/RedHat/RPMS/") && strings.HasSuffix(p, ".rpm"):
		if req.URL.Host == frontend {
			return "package.frontend"
		}
		return "package.peer"
	}
	return "other"
}

// goid reads the calling goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
