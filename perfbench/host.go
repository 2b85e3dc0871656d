package main

// In-process hosting of the serving tier, configured as
// docs/OPERATIONS.md §1-2 deploys it: each replica is an
// internal/server daemon with a dedup run store and the in-memory
// cache (-store, -cache), and the router is an internal/fleet Frontend
// with queue 1024 and client quota 256 over a Router dialled to the
// replicas. Everything listens on loopback.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	numReplicas       = 2
	routerQueue       = 1024
	routerClientQuota = 256
)

// fleetSpec describes one fleet to start.
type fleetSpec struct {
	// backend and seed identify what the replicas serve (reported by
	// /v1/backends and keying the dedup stores).
	backend string
	seed    uint64
	// endpoint builds replica i's served endpoint, before -cache.
	endpoint func(i int) (judge.LLM, error)
	// dir holds the replicas' dedup stores.
	dir string
	// rec, when set, times the router and replica handlers and the
	// router->replica hop.
	rec *recorder
}

type listener struct {
	hs   *http.Server
	addr string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the server at once. It runs only after the phase's
// requests have all been answered; Shutdown would instead wait up to
// 5 s for connections the client transport dialled but never used.
func (l *listener) close() error {
	err := l.hs.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

type replica struct {
	srv   *server.Server
	store *store.Store
	l     *listener
}

// fleetHost is a running router over its replicas.
type fleetHost struct {
	replicas []*replica
	router   *fleet.Router
	front    *fleet.Frontend
	l        *listener
}

func (f *fleetHost) addr() string { return f.l.addr }

// scrapeAddrs lists the router and every replica, in that order.
func (f *fleetHost) scrapeAddrs() []string {
	out := []string{f.l.addr}
	for _, r := range f.replicas {
		out = append(out, r.l.addr)
	}
	return out
}

// scrape reads /metrics from the router and every replica in turn
// with client and returns the time each took in milliseconds.
func (f *fleetHost) scrape(client *http.Client) ([]float64, error) {
	var ms []float64
	for _, addr := range f.scrapeAddrs() {
		start := time.Now()
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return ms, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("scrape of %s answered %s", addr, resp.Status)
		}
		if err != nil {
			return ms, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return ms, nil
}

func startFleet(sp fleetSpec) (_ *fleetHost, err error) {
	f := &fleetHost{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	addrs := make([]string, numReplicas)
	for i := range numReplicas {
		llm, err := sp.endpoint(i)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(filepath.Join(sp.dir, fmt.Sprintf("replica-%d.jsonl", i)))
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("replica-%d", i)
		srv := server.New(server.Config{
			LLM: judge.Cached(llm), Backend: sp.backend, Seed: sp.seed,
			ReplicaID: id, Store: st,
		})
		rp := &replica{srv: srv, store: st}
		f.replicas = append(f.replicas, rp)
		h := srv.Handler()
		if sp.rec != nil {
			h = timedHandler(h, sp.rec, "server", id)
		}
		if rp.l, err = listen(h); err != nil {
			return nil, err
		}
		addrs[i] = rp.l.addr
	}
	var opts []remote.Option
	if sp.rec != nil {
		opts = append(opts, remote.WithHTTPClient(&http.Client{Transport: &timedTransport{base: newTransport(), rec: sp.rec, layer: "remote", host: "router"}}))
	}
	if f.router, err = fleet.DialConfig(strings.Join(addrs, ","), fleet.Config{}, opts...); err != nil {
		return nil, err
	}
	f.front = fleet.NewFrontend(fleet.FrontendConfig{
		Router: f.router, ID: "router", QueueLimit: routerQueue, ClientQuota: routerClientQuota,
	})
	h := f.front.Handler()
	if sp.rec != nil {
		h = timedHandler(h, sp.rec, "fleet", "router")
	}
	if f.l, err = listen(h); err != nil {
		return nil, err
	}
	return f, nil
}

// close stops the router, then the replicas, then their stores, and
// returns every error met on the way.
func (f *fleetHost) close() error {
	var errs []error
	if f.l != nil {
		errs = append(errs, f.l.close())
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		if r.l != nil {
			errs = append(errs, r.l.close())
		}
		r.srv.Close()
		errs = append(errs, r.store.Close())
	}
	return errors.Join(errs...)
}

// serverStats sums the replicas' serving counters.
func (f *fleetHost) serverStats() server.Stats {
	var t server.Stats
	for _, r := range f.replicas {
		s := r.srv.Stats()
		t.Requests += s.Requests
		t.BatchRequests += s.BatchRequests
		t.Rejected += s.Rejected
		t.EndpointCalls += s.EndpointCalls
		t.EndpointPrompts += s.EndpointPrompts
		t.StoreHits += s.StoreHits
	}
	return t
}

// shed counts the router's admission refusals of every kind.
func (f *fleetHost) shed() int64 {
	s := f.front.Stats()
	return s.ShedInteractive + s.ShedBulk + s.QuotaRejected
}
