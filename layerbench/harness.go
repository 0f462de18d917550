package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/server"
	"ltrf/internal/store"
)

// loopback is an in-process HTTP server on 127.0.0.1 whose API handler can
// be swapped, so one listener serves a fresh server+engine per pass without
// the pass timing a new listener, plus a client with at most `conns`
// keep-alive connections to it.
type loopback struct {
	base    string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	served  chan error
	tr      *http.Transport
	client  *http.Client
}

func startLoopback(conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	lb.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := lb.handler.Load()
		if h == nil {
			http.Error(w, "no server mounted", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	lb.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	lb.client = &http.Client{Transport: lb.tr}
	return lb, nil
}

// mount serves the API of a new server on eng from now on.
func (lb *loopback) mount(eng *exp.Engine) error {
	s, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return err
	}
	h := s.Handler()
	lb.handler.Store(&h)
	return nil
}

// post sends body to path and reads the whole response into buf.
func (lb *loopback) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := lb.client.Post(lb.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// close stops the server and waits until its serve loop has returned.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	lb.tr.CloseIdleConnections()
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// scratchDirs hands out fresh directories under the output dir for the
// run's stores and removes them all at the end.
type scratchDirs struct {
	root string
	n    int
}

func newScratchDirs(out string) (*scratchDirs, error) {
	root := filepath.Join(out, fmt.Sprintf("stores-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	return &scratchDirs{root: root}, nil
}

func (s *scratchDirs) next() string {
	s.n++
	return filepath.Join(s.root, fmt.Sprint(s.n))
}

func (s *scratchDirs) removeAll() { os.RemoveAll(s.root) }

// openStore opens the result store at dir with the engine's schema version.
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Version: exp.StoreVersion()})
}
