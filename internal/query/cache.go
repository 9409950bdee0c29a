package query

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/tensor"
)

// Cache is a byte-budgeted LRU of decoded frames. The decode-then-
// compute fallback pays a full decompression per frame; repeated
// queries over the same frames — a dashboard polling
// /v1/frames/{label}/stats, a region scrubbed through interactively —
// hit the cache instead. One Cache may back many engines (Options.Cache
// shares one memory budget across every engine built over it, as an
// ingest store does across its read generations), so keys are
// (namespace, frame index) pairs: engines key by their source's frame
// identity (FrameKeyer — the owning store.Reader instance) or by a
// private per-engine namespace, so two engines over different readers
// can never alias each other's frame 0, while engines over the same
// reader share entries. A reader reopened over the same file is a new
// namespace. Cost accounting is 8 bytes per element.
//
// A Cache is safe for concurrent use. Concurrent misses on the same
// frame are coalesced through Decode: the first caller runs the decode,
// the rest wait on it and share the result — a thundering herd on one
// hot frame costs one decompression, not one per request. The flight
// table is keyed like the cache itself, so coalescing follows cache
// sharing: engines over one shared Cache and one reader coalesce
// together.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recently used

	// In-flight decode coalescing. A separate lock from mu: waiters
	// block on a flight's done channel, never while holding either lock,
	// and mu's hold times stay trivial.
	fmu     sync.Mutex
	flights map[cacheKey]*flight
}

var errDecodePanicked = errors.New("query: the decode this request waited on panicked")

// flight is one in-progress decode; waiters block on done and read the
// result fields after it closes.
type flight struct {
	done chan struct{}
	t    *tensor.Tensor
	err  error
}

// cacheKey scopes a frame index to the engine that decoded it.
type cacheKey struct {
	ns    uint64
	frame int
}

type cacheEntry struct {
	key   cacheKey
	t     *tensor.Tensor
	bytes int64
}

// NewCache returns a cache evicting least-recently-used frames once the
// decoded bytes held exceed budget. A budget ≤ 0 disables caching: Get
// always misses and Put is a no-op, so such a cache holds no entry table.
func NewCache(budget int64) *Cache {
	c := &Cache{budget: budget}
	if budget > 0 {
		c.entries = map[cacheKey]*list.Element{}
	}
	c.lru.Init()
	return c
}

// Get returns the cached decode of frame key in namespace ns, marking
// it most recently used. The caller must not mutate the returned tensor
// — it is shared with every other cache hit.
func (c *Cache) Get(ns uint64, key int) (*tensor.Tensor, bool) {
	if c == nil || c.budget <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{ns, key}]
	if !ok {
		cacheMisses.Inc()
		return nil, false
	}
	cacheHits.Inc()
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).t, true
}

// Put inserts the decode of frame key, evicting from the cold end until
// the budget holds. A frame bigger than the whole budget is not cached.
func (c *Cache) Put(ns uint64, key int, t *tensor.Tensor) {
	if c == nil || c.budget <= 0 {
		return
	}
	bytes := int64(t.Len()) * 8
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{ns, key}
	if el, ok := c.entries[k]; ok {
		// A concurrent miss decoded the same frame twice; the entry
		// already accounts for it, so just refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	for c.used+bytes > c.budget {
		cold := c.lru.Back()
		if cold == nil {
			// Unreachable while accounting is consistent (used > 0
			// implies a resident entry), but an accounting bug must not
			// become an infinite loop or a nil dereference.
			c.used = 0
			break
		}
		e := cold.Value.(*cacheEntry)
		c.lru.Remove(cold)
		delete(c.entries, e.key)
		c.used -= e.bytes
		cacheEvictions.Inc()
		cacheEvictedBytes.Add(uint64(e.bytes))
		cacheUsedBytes.Add(-e.bytes)
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, t: t, bytes: bytes})
	c.used += bytes
	cacheUsedBytes.Add(bytes)
}

// Decode returns frame key of namespace ns decoded, serving it from
// the cache when resident and otherwise coalescing concurrent misses:
// exactly one caller per generation runs decode, everyone else piled up
// on the same frame waits and shares its result. A generation ends when
// the decode completes — the flight is forgotten before its waiters
// wake, so a later miss (after eviction, or with caching disabled by a
// ≤ 0 budget) starts a fresh decode rather than reusing a stale flight.
// Errors are never cached: each new generation retries. If decode
// panics, the panic reaches the caller that ran it and its waiters get
// an error.
//
// Decode works on a nil or disabled Cache too — coalescing does not
// depend on the byte budget, only result retention does.
func (c *Cache) Decode(ns uint64, key int, decode func() (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	if c == nil {
		return decode()
	}
	if t, ok := c.Get(ns, key); ok {
		return t, nil
	}
	k := cacheKey{ns, key}
	c.fmu.Lock()
	if f, ok := c.flights[k]; ok {
		c.fmu.Unlock()
		cacheCoalesced.Inc()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.t, nil
	}
	f := &flight{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = map[cacheKey]*flight{}
	}
	c.flights[k] = f
	c.fmu.Unlock()

	// Deferred, so a panicking decode ends its generation too: waiters
	// get errDecodePanicked (f.err is never overwritten), the next miss
	// decodes afresh, and the panic continues up the owner's stack.
	f.err = errDecodePanicked
	defer func() {
		c.fmu.Lock()
		delete(c.flights, k)
		c.fmu.Unlock()
		close(f.done)
	}()
	f.t, f.err = decode()
	if f.err == nil {
		c.Put(ns, key, f.t)
	}
	return f.t, f.err
}
