package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/client"
	"mavbench/pkg/mavbench/distrib"
	"mavbench/pkg/mavbench/resultdb"
	"mavbench/pkg/mavbench/server"
)

// storedPerCampaign and campaignSize shape a service request: one campaign
// of five specs, four already in the store and one it has never seen.
const (
	storedPerCampaign = 4
	campaignSize      = storedPerCampaign + 1
)

// serviceSystem is an in-process mavbenchd coordinator with one worker per
// caller registered over loopback HTTP, all on one resultdb segment store.
// Callers submit campaigns through pkg/mavbench/client and stream their
// results back as NDJSON. A caller's campaign ends only after the
// coordinator has released its worker, so with one worker per caller a new
// spec always finds a free worker and never waits for the coordinator's
// periodic re-check of a busy fleet.
type serviceSystem struct {
	seed    int64
	sz      shape
	callers int
	tr      *tracer

	stored  []mavbench.Spec
	prefill []mavbench.Result

	dir        string
	store      *resultdb.Store
	wc         *mavbench.WorldCache
	servers    []*server.Server // the coordinator, then the workers
	listeners  []*http.Server
	coordURL   string
	transport  *http.Transport
	cl         *client.Client
	stopJoin   context.CancelFunc
	background sync.WaitGroup
}

// newServiceSystem starts the servers, registers the workers, opens the
// store under dir and pre-fills it with the stored pool by running the pool
// once through the fleet. A non-nil tracer wraps the store, the workers'
// handlers and the client's transport.
func newServiceSystem(ctx context.Context, seed int64, sz shape, callers int, dir string, tr *tracer) (_ *serviceSystem, err error) {
	s := &serviceSystem{seed: seed, sz: sz, callers: callers, tr: tr, dir: dir, stopJoin: func() {}}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()
	for n := 0; n < sz.stored; n++ {
		spec, err := serviceSpec(seed, "stored", n, sz)
		if err != nil {
			return nil, err
		}
		s.stored = append(s.stored, spec)
	}
	if s.store, err = resultdb.Open(dir); err != nil {
		return nil, err
	}
	var store mavbench.ResultStore = s.store
	if tr != nil {
		store = &timedStore{Store: s.store, tr: tr}
	}
	s.wc = mavbench.NewWorldCache()
	cfg := server.Config{Store: store, Workers: runtime.NumCPU(), WorldCache: s.wc}
	coord := server.New(cfg)
	s.servers = append(s.servers, coord)
	if s.coordURL, err = s.serve(coord.Handler()); err != nil {
		return nil, err
	}
	joinCtx, stop := context.WithCancel(context.Background())
	s.stopJoin = stop
	for w := 0; w < callers; w++ {
		worker := server.New(cfg)
		s.servers = append(s.servers, worker)
		var handler http.Handler = worker.Handler()
		if tr != nil {
			handler = timedHandler(handler, tr)
		}
		workerURL, err := s.serve(handler)
		if err != nil {
			return nil, err
		}
		s.background.Add(1)
		go func() {
			defer s.background.Done()
			_ = distrib.Join(joinCtx, distrib.JoinConfig{Coordinator: s.coordURL, Advertise: workerURL}) // returns only once stopped
		}()
	}
	for coord.Fleet().DispatchableCount() < callers {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.transport = &http.Transport{MaxIdleConnsPerHost: 2 * callers}
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = &countingTransport{next: rt, tr: tr}
	}
	s.cl = &client.Client{BaseURL: s.coordURL, HTTPClient: &http.Client{Transport: rt}}

	results, err := s.cl.Run(ctx, s.stored)
	if err != nil {
		return nil, fmt.Errorf("pre-filling the store: %w", err)
	}
	for _, res := range results {
		if !res.OK() {
			return nil, fmt.Errorf("pre-filling the store: %s", res.Error)
		}
	}
	s.prefill = results
	return s, nil
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (s *serviceSystem) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.listeners = append(s.listeners, srv)
	s.background.Add(1)
	go func() {
		defer s.background.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *serviceSystem) plan(i int) []mavbench.Spec {
	specs := make([]mavbench.Spec, 0, campaignSize)
	for j := 0; j < storedPerCampaign; j++ {
		specs = append(specs, s.stored[(storedPerCampaign*i+j)%len(s.stored)])
	}
	fresh, err := serviceSpec(s.seed, "new", i, s.sz)
	if err != nil {
		panic(err) // the generator only builds valid specs
	}
	return append(specs, fresh)
}

func (s *serviceSystem) request(ctx context.Context, specs []mavbench.Spec) []outcome {
	req := requestOf(ctx)
	start := time.Now()
	ack, err := s.cl.Submit(ctx, specs)
	s.tr.add("http.submit", req, start, 0)
	outs := make([]outcome, 0, len(specs))
	if err == nil {
		err = s.cl.Results(ctx, ack.ID, func(res mavbench.Result) error {
			if len(outs) == 0 {
				s.tr.add("http.first_result", req, start, 0)
			}
			outs = append(outs, outcome{res: res, latency: time.Since(start)})
			return nil
		})
	}
	if err == nil && len(outs) < len(specs) {
		err = errors.New("campaign ended before every result arrived")
	}
	for len(outs) < len(specs) {
		outs = append(outs, outcome{err: err, latency: time.Since(start)})
	}
	return outs
}

func (s *serviceSystem) passLen() int { return len(s.stored) / storedPerCampaign }

// digestSpecs are the stored pool plus the new specs of the first pass.
func (s *serviceSystem) digestSpecs() []mavbench.Spec {
	specs := append([]mavbench.Spec(nil), s.stored...)
	for i := 0; i < s.passLen(); i++ {
		p := s.plan(i)
		specs = append(specs, p[len(p)-1])
	}
	return specs
}

func (s *serviceSystem) setupResults() []mavbench.Result { return s.prefill }

// verify runs every spec the service returned through the in-process
// Campaign, without a store, and requires the same result: the fleet and
// the local engine must agree.
func (s *serviceSystem) verify(ctx context.Context, chk *checker) error {
	chk.mu.Lock()
	specs := make([]mavbench.Spec, 0, len(chk.specs))
	for _, spec := range chk.specs {
		specs = append(specs, spec)
	}
	chk.mu.Unlock()
	results, err := mavbench.NewCampaign(specs...).SetWorkers(runtime.NumCPU()).SetWorldCache(mavbench.NewWorldCache()).Collect(ctx)
	if err != nil {
		return fmt.Errorf("local reference run: %w", err)
	}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	for _, res := range results {
		if string(canonicalResult(res)) != string(chk.ref[res.SpecHash]) {
			return fmt.Errorf("spec %s: fleet result differs from the local Campaign", res.SpecHash[:12])
		}
	}
	return nil
}

func (s *serviceSystem) worldStats() mavbench.WorldCacheStats { return s.wc.Stats() }

// dispatchedBatches scrapes the coordinator's /metrics for the number of
// batches it has dispatched to the fleet.
func (s *serviceSystem) dispatchedBatches(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.coordURL+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := (&http.Client{Transport: s.transport}).Do(req)
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mavbench_dispatch_batches_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// close stops the workers' membership loops and every server, closes the
// store and removes its directory. It is safe on a partly built system.
func (s *serviceSystem) close() error {
	s.stopJoin()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range s.listeners {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	s.background.Wait()
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	// The coordinator dispatches to the workers with the default client.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
