package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mavbench/pkg/mavbench"
)

// outcome is one mission as its caller saw it.
type outcome struct {
	res     mavbench.Result
	err     error // the result never came back
	latency time.Duration
}

// failed reports whether the mission counts against error_rate: it came
// back with an error, was refused, or never came back.
func (o outcome) failed() bool { return o.err != nil || o.res.Error != "" }

// system is the program under test, set up for one workload.
type system interface {
	// plan returns the specs of closed-loop request i.
	plan(i int) []mavbench.Spec
	// request sends specs the way a user would and waits for every result.
	request(ctx context.Context, specs []mavbench.Spec) []outcome
	// passLen is the number of requests in one pass over the workload.
	passLen() int
	// digestSpecs are the specs whose results make up the results digest.
	digestSpecs() []mavbench.Spec
	// setupResults are results produced during set-up that later results
	// must equal (the service's pre-filled store); nil if none.
	setupResults() []mavbench.Result
	// verify runs the workload's own output checks over every result seen.
	verify(ctx context.Context, chk *checker) error
	worldStats() mavbench.WorldCacheStats
	close() error
}

// localSystem runs missions in process through mavbench.Campaign, one
// mission per request, over a world cache filled during set-up.
type localSystem struct {
	pass []mavbench.Spec
	wc   *mavbench.WorldCache
}

func newLocalSystem(ctx context.Context, name string, seed int64, sz shape, callers int) (*localSystem, error) {
	pass, err := worldPass(name, seed, sz)
	if err != nil {
		return nil, err
	}
	s := &localSystem{pass: pass, wc: mavbench.NewWorldCache()}
	// Build and cache every distinct world with one short mission each,
	// which also warms the simulator's pools.
	var warm []mavbench.Spec
	seen := map[string]bool{}
	for _, spec := range pass {
		if h := spec.WorldHash(); !seen[h] {
			seen[h] = true
			warm = append(warm, warmupSpec(spec))
		}
	}
	if _, err := mavbench.NewCampaign(warm...).SetWorkers(callers).SetWorldCache(s.wc).Collect(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *localSystem) plan(i int) []mavbench.Spec { return []mavbench.Spec{s.pass[i%len(s.pass)]} }

func (s *localSystem) request(ctx context.Context, specs []mavbench.Spec) []outcome {
	outs := make([]outcome, 0, len(specs))
	for _, spec := range specs {
		start := time.Now()
		results, _ := mavbench.NewCampaign(spec).SetWorkers(1).SetWorldCache(s.wc).Collect(ctx)
		outs = append(outs, outcome{res: results[0], latency: time.Since(start)})
	}
	return outs
}

func (s *localSystem) passLen() int                           { return len(s.pass) }
func (s *localSystem) digestSpecs() []mavbench.Spec           { return s.pass }
func (s *localSystem) setupResults() []mavbench.Result        { return nil }
func (s *localSystem) verify(context.Context, *checker) error { return nil }
func (s *localSystem) worldStats() mavbench.WorldCacheStats   { return s.wc.Stats() }
func (s *localSystem) close() error                           { return nil }

// phase is one closed-loop run over a system.
type phase struct {
	outs     []outcome
	requests int
	wall     time.Duration
}

type requestKey struct{}

// requestOf returns the closed-loop request index a context belongs to, or
// -1 outside a request.
func requestOf(ctx context.Context) int {
	if i, ok := ctx.Value(requestKey{}).(int); ok {
		return i
	}
	return -1
}

// drive runs closed-loop callers against sys. Each caller takes the next
// request index, sends it and waits for all its results before taking
// another. Callers stop taking requests at the deadline (when set) or after
// limit requests (when > 0); the phase ends when every caller has returned.
// Requests carry pprof labels naming the workload and the request.
func drive(ctx context.Context, sys system, workload string, callers, limit int, deadline time.Time) phase {
	var (
		next, done int64
		mu         sync.Mutex
		outs       []outcome
		wg         sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(atomic.AddInt64(&next, 1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				var got []outcome
				labels := pprof.Labels("workload", workload, "request", strconv.Itoa(i))
				pprof.Do(context.WithValue(ctx, requestKey{}, i), labels, func(ctx context.Context) {
					got = sys.request(ctx, sys.plan(i))
				})
				mu.Lock()
				outs = append(outs, got...)
				mu.Unlock()
				atomic.AddInt64(&done, 1)
			}
		}()
	}
	wg.Wait()
	return phase{outs: outs, requests: int(done), wall: time.Since(start)}
}

// checker holds the canonical bytes of the first result seen for each spec
// and flags any later result for the same spec that differs.
type checker struct {
	mu       sync.Mutex
	ref      map[string][]byte
	specs    map[string]mavbench.Spec
	mismatch []string
}

func newChecker() *checker {
	return &checker{ref: map[string][]byte{}, specs: map[string]mavbench.Spec{}}
}

// canonicalResult is a result's JSON without the fields that depend on how
// it was delivered (campaign position, store hit).
func canonicalResult(res mavbench.Result) []byte {
	res.Index, res.Cached = 0, false
	b, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("encoding a result: %v", err)) // Result always encodes
	}
	return b
}

func (c *checker) add(res mavbench.Result) {
	if res.Error != "" {
		return
	}
	b := canonicalResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.ref[res.SpecHash]; ok {
		if string(ref) != string(b) {
			c.mismatch = append(c.mismatch, res.SpecHash)
		}
		return
	}
	c.ref[res.SpecHash] = b
	c.specs[res.SpecHash] = res.Spec
}

func (c *checker) addPhase(ph phase) {
	for _, o := range ph.outs {
		if !o.failed() {
			c.add(o.res)
		}
	}
}

// digest hashes the canonical results of specs, in spec-hash order. Every
// spec must have a result.
func (c *checker) digest(specs []mavbench.Spec) (string, error) {
	hashes := make([]string, 0, len(specs))
	for _, s := range specs {
		hashes = append(hashes, s.Hash())
	}
	sort.Strings(hashes)
	h := sha256.New()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, hash := range hashes {
		if i > 0 && hash == hashes[i-1] {
			continue
		}
		ref, ok := c.ref[hash]
		if !ok {
			return "", fmt.Errorf("no result for spec %s", hash[:12])
		}
		fmt.Fprintf(h, "%s\n%s\n", hash, ref)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// complete runs, through the system, every digest spec the phases did not
// reach, so the digest always covers the same specs.
func complete(ctx context.Context, sys system, chk *checker) error {
	var missing []mavbench.Spec
	chk.mu.Lock()
	for _, s := range sys.digestSpecs() {
		if _, ok := chk.ref[s.Hash()]; !ok {
			missing = append(missing, s)
		}
	}
	chk.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	for _, o := range sys.request(ctx, missing) {
		if o.failed() {
			return fmt.Errorf("completing the digest: %v%s", o.err, o.res.Error)
		}
		chk.add(o.res)
	}
	return nil
}
