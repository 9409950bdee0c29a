package query

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Budget, Used int64
	Frames       int
	// Hits, Misses and Coalesced (misses that waited on another caller's
	// in-flight decode) read the package counters every Cache adds to,
	// so a test compares deltas: no query test runs in parallel, so a
	// delta is the test's own traffic.
	Hits, Misses, Coalesced uint64
}

// Stats returns a snapshot of the cache's occupancy and the package's
// cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Budget:    c.budget,
		Used:      c.used,
		Frames:    c.lru.Len(),
		Hits:      cacheHits.Value(),
		Misses:    cacheMisses.Value(),
		Coalesced: cacheCoalesced.Value(),
	}
}

// Cache exposes the engine's decoded-frame cache.
func (e *Engine) Cache() *Cache { return e.cache }
