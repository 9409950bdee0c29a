package query

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Budget, Used int64
	Frames       int
	Hits, Misses int64
	// Coalesced counts misses that waited on another caller's in-flight
	// decode instead of decoding themselves.
	Coalesced int64
}

// Stats returns a snapshot of the cache counters.
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
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced.Load(),
	}
}

// Cache exposes the engine's decoded-frame cache.
func (e *Engine) Cache() *Cache { return e.cache }
