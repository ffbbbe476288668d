package env

import (
	"container/list"
	"fmt"
	"sync"

	"mavbench/internal/geom"
)

// WorldCache is a size-bounded in-process LRU of built worlds keyed by
// world-hash (the content address of a spec's world-affecting fields). A
// compute-axis sweep — many operating points over the same (scenario,
// difficulty, seed) — builds each world once and serves every subsequent run
// a deep Clone, so the cached original is never mutated by a simulation.
// Worlds are a pure function of their spec and rebuild in tens of
// microseconds, so the cache lives in memory only.
//
// All methods are safe for concurrent use.
type WorldCache struct {
	maxBytes int64

	mu      sync.Mutex
	byKey   map[string]*list.Element
	pending map[string]*pendingBuild // builds in flight, by key
	lru     *list.List               // of *worldEntry; front = most recent
	total   int64
	hits    int64
	misses  int64
	evicts  int64
}

// worldEntry is one cached world and its start position.
type worldEntry struct {
	key   string
	world *World
	start geom.Vec3
	size  int64
}

// pendingBuild is one world being built. Concurrent lookups of the
// same key wait on done instead of building the world a second time.
type pendingBuild struct {
	done  chan struct{}
	world *World
	start geom.Vec3
	err   error
}

// WorldCacheStats is a point-in-time snapshot of cache effectiveness.
type WorldCacheStats struct {
	Hits      int64 // lookups served without building
	Misses    int64 // lookups that had to build the world
	Evictions int64 // entries dropped by the LRU size bound
	Entries   int   // worlds currently held in memory
	SizeBytes int64 // estimated in-memory footprint
}

// WorldCacheOption configures a WorldCache.
type WorldCacheOption func(*WorldCache)

// WithCacheMaxBytes bounds the cache's estimated in-memory footprint; least
// recently used worlds are evicted past it (the most recent entry is always
// kept). n <= 0 means unbounded.
func WithCacheMaxBytes(n int64) WorldCacheOption {
	return func(c *WorldCache) { c.maxBytes = n }
}

// NewWorldCache constructs an empty cache.
func NewWorldCache(opts ...WorldCacheOption) *WorldCache {
	c := &WorldCache{byKey: map[string]*list.Element{}, pending: map[string]*pendingBuild{}, lru: list.New()}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// GetOrBuild returns a private deep clone of the world for key, building (and
// caching) it with build on a miss. Every caller gets its own clone —
// simulations mutate worlds freely without poisoning the cache. Concurrent
// misses on one key share a single build. Build errors are returned
// verbatim (to every caller waiting on that build) and cache nothing; a build
// that panics releases its waiters with an error and re-panics.
func (c *WorldCache) GetOrBuild(key string, build func() (*World, geom.Vec3, error)) (*World, geom.Vec3, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*worldEntry)
		w, start := e.world.Clone(), e.start
		c.mu.Unlock()
		return w, start, nil
	}
	if p, ok := c.pending[key]; ok {
		c.mu.Unlock()
		<-p.done
		c.mu.Lock()
		if p.err != nil {
			c.misses++
		} else {
			c.hits++
		}
		c.mu.Unlock()
		if p.err != nil {
			return nil, geom.Vec3{}, p.err
		}
		return p.world.Clone(), p.start, nil
	}
	p := &pendingBuild{done: make(chan struct{})}
	c.pending[key] = p
	c.mu.Unlock()

	c.fill(key, p, build)
	if p.err != nil {
		return nil, geom.Vec3{}, p.err
	}
	// The original goes into the cache pristine; the builder too gets a
	// clone, so no caller can ever mutate the cached copy.
	return p.world.Clone(), p.start, nil
}

// fill builds the world for key into p and caches the pristine original,
// then drops p from the pending set and wakes its waiters. Build errors cache
// nothing. The cleanup is deferred so a build that panics (the run engine
// recovers it further up) hands its waiters an error instead of leaving the
// key wedged.
func (c *WorldCache) fill(key string, p *pendingBuild, build func() (*World, geom.Vec3, error)) {
	p.err = fmt.Errorf("env: world build for %s panicked", key) // replaced on return
	defer func() {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		close(p.done)
	}()
	w, start, err := build()
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		p.err = err
		return
	}
	c.insert(key, w, start)
	p.world, p.start, p.err = w, start, nil
}

// Contains reports whether key is resident in the cache (no recency update;
// for tests).
func (c *WorldCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Stats returns a snapshot of the cache counters.
func (c *WorldCache) Stats() WorldCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WorldCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicts,
		Entries: c.lru.Len(), SizeBytes: c.total,
	}
}

// insert stores a freshly built world under key, counts the miss and
// enforces the size bound.
func (c *WorldCache) insert(key string, w *World, start geom.Vec3) {
	size := worldFootprint(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	c.byKey[key] = c.lru.PushFront(&worldEntry{key: key, world: w, start: start, size: size})
	c.total += size
	if c.maxBytes <= 0 {
		return
	}
	for c.total > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*worldEntry)
		c.total -= e.size
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.evicts++
	}
}

// worldFootprint estimates a cached world's memory cost in bytes. It only
// needs to be proportional — the LRU bound is a budget, not an accounting.
func worldFootprint(w *World) int64 {
	const worldBase, perObstacle = 512, 176
	return worldBase + perObstacle*int64(len(w.obstacles))
}
