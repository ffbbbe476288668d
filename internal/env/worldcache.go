package env

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mavbench/internal/geom"
)

// WorldCache is a size-bounded in-process LRU of built worlds keyed by
// world-hash (the content address of a spec's world-affecting fields). A
// compute-axis sweep — many operating points over the same (scenario,
// difficulty, seed) — builds each world once and serves every subsequent run
// a deep Clone, so the cached original is never mutated by a simulation.
//
// With a spill directory configured, built worlds are also written to disk as
// content-addressed snapshots (<world-hash>.json, atomic temp-file + rename),
// so worlds survive process restarts and can be shared by every process of a
// fleet worker box. The in-memory LRU is the first tier; the spill directory
// is consulted on a memory miss before falling back to building.
//
// All methods are safe for concurrent use.
type WorldCache struct {
	maxBytes int64
	dir      string

	mu      sync.Mutex
	byKey   map[string]*list.Element
	pending map[string]*pendingBuild // builds in flight, by key
	lru     *list.List               // of *worldEntry; front = most recent
	total   int64
	hits    int64
	misses  int64
	evicts  int64
	spillH  int64 // misses served from the spill tier
	spillW  int64 // snapshots written to the spill tier
}

// worldEntry is one cached world and its start position.
type worldEntry struct {
	key   string
	world *World
	start geom.Vec3
	size  int64
}

// pendingBuild is one world being loaded or built. Concurrent lookups of the
// same key wait on done instead of building the world a second time.
type pendingBuild struct {
	done  chan struct{}
	world *World
	start geom.Vec3
	err   error
}

// WorldCacheStats is a point-in-time snapshot of cache effectiveness.
type WorldCacheStats struct {
	Hits        int64 // lookups served from memory or spill
	Misses      int64 // lookups that had to build the world
	Evictions   int64 // entries dropped by the LRU size bound
	SpillHits   int64 // of Hits, how many came from the disk spill tier
	SpillWrites int64 // snapshots written to the spill directory
	Entries     int   // worlds currently held in memory
	SizeBytes   int64 // estimated in-memory footprint
}

// WorldCacheOption configures a WorldCache.
type WorldCacheOption func(*WorldCache)

// WithCacheMaxBytes bounds the cache's estimated in-memory footprint; least
// recently used worlds are evicted past it (the most recent entry is always
// kept). n <= 0 means unbounded.
func WithCacheMaxBytes(n int64) WorldCacheOption {
	return func(c *WorldCache) { c.maxBytes = n }
}

// WithCacheDir enables the content-addressed disk spill tier rooted at dir
// (created if needed).
func WithCacheDir(dir string) WorldCacheOption {
	return func(c *WorldCache) { c.dir = dir }
}

// NewWorldCache constructs an empty cache.
func NewWorldCache(opts ...WorldCacheOption) *WorldCache {
	c := &WorldCache{byKey: map[string]*list.Element{}, pending: map[string]*pendingBuild{}, lru: list.New()}
	for _, opt := range opts {
		opt(c)
	}
	if c.dir != "" {
		_ = os.MkdirAll(c.dir, 0o755)
	}
	return c
}

// GetOrBuild returns a private deep clone of the world for key, building (and
// caching) it with build on a miss. Every caller gets its own clone —
// simulations mutate worlds freely without poisoning the cache. Concurrent
// misses on one key share a single load or build. Build errors are returned
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

// fill loads or builds the world for key into p, then drops p from the
// pending set and wakes its waiters. The cleanup is deferred so a build that
// panics (the run engine recovers it further up) hands its waiters an error
// instead of leaving the key wedged.
func (c *WorldCache) fill(key string, p *pendingBuild, build func() (*World, geom.Vec3, error)) {
	p.err = fmt.Errorf("env: world build for %s panicked", key) // replaced on return
	defer func() {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		close(p.done)
	}()
	p.world, p.start, p.err = c.loadOrBuild(key, build)
}

// loadOrBuild fills a miss from the spill tier or by building, and caches
// and returns the pristine world. Build errors cache nothing.
func (c *WorldCache) loadOrBuild(key string, build func() (*World, geom.Vec3, error)) (*World, geom.Vec3, error) {
	if w, start, ok := c.loadSpill(key); ok {
		c.insert(key, w, start, true)
		return w, start, nil
	}
	w, start, err := build()
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, geom.Vec3{}, err
	}
	c.insert(key, w, start, false)
	c.writeSpill(key, w, start)
	return w, start, nil
}

// Contains reports whether key is resident in the in-memory tier (no recency
// update; for tests).
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
		SpillHits: c.spillH, SpillWrites: c.spillW,
		Entries: c.lru.Len(), SizeBytes: c.total,
	}
}

// insert stores a pristine world under key and enforces the size bound.
// fromSpill distinguishes a spill-tier hit from a fresh build in the stats.
func (c *WorldCache) insert(key string, w *World, start geom.Vec3, fromSpill bool) {
	size := worldFootprint(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	if fromSpill {
		c.hits++
		c.spillH++
	} else {
		c.misses++
	}
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

// spillEntry is the on-disk spill record: the world snapshot plus the start
// position the workload returned alongside it.
type spillEntry struct {
	Start geom.Vec3 `json:"start"`
	World []byte    `json:"world"` // EncodeSnapshot output (base64 via JSON)
}

// validSpillKey mirrors the result store's hash check: lowercase hex only, so
// a hostile key can never escape the spill directory.
func validSpillKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for _, ch := range key {
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

func (c *WorldCache) spillPath(key string) string { return filepath.Join(c.dir, key+".json") }

// loadSpill reads a spilled world; any error is just a miss.
func (c *WorldCache) loadSpill(key string) (*World, geom.Vec3, bool) {
	if c.dir == "" || !validSpillKey(key) {
		return nil, geom.Vec3{}, false
	}
	buf, err := os.ReadFile(c.spillPath(key))
	if err != nil {
		return nil, geom.Vec3{}, false
	}
	var entry spillEntry
	if err := json.Unmarshal(buf, &entry); err != nil {
		// Corrupt spill (torn write by a crashed process): drop it so it
		// cannot shadow a future write.
		_ = os.Remove(c.spillPath(key))
		return nil, geom.Vec3{}, false
	}
	w, err := DecodeSnapshot(entry.World)
	if err != nil {
		_ = os.Remove(c.spillPath(key))
		return nil, geom.Vec3{}, false
	}
	return w, entry.Start, true
}

// writeSpill persists a world snapshot atomically (temp file + rename);
// failures degrade to rebuild-on-restart, never to an error.
func (c *WorldCache) writeSpill(key string, w *World, start geom.Vec3) {
	if c.dir == "" || !validSpillKey(key) {
		return
	}
	snap, err := w.EncodeSnapshot()
	if err != nil {
		return
	}
	buf, err := json.Marshal(spillEntry{Start: start, World: snap})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".world-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.spillPath(key)); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	c.mu.Lock()
	c.spillW++
	c.mu.Unlock()
}
