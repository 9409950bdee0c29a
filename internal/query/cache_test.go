package query

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

// frameOf returns a tensor of n elements (8n bytes in the cache).
func frameOf(n int) *tensor.Tensor { return tensor.New(n) }

func TestCacheEvictsLRUWithinBudget(t *testing.T) {
	c := NewCache(3 * 10 * 8) // room for three 10-element frames
	for k := 0; k < 3; k++ {
		c.Put(1, k, frameOf(10))
	}
	if s := c.Stats(); s.Frames != 3 || s.Used != 240 {
		t.Fatalf("stats %+v", s)
	}
	// Touch 0 so 1 becomes coldest, then overflow.
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("frame 0 should be cached")
	}
	c.Put(1, 3, frameOf(10))
	if _, ok := c.Get(1, 1); ok {
		t.Error("frame 1 was most cold and should have been evicted")
	}
	for _, k := range []int{0, 2, 3} {
		if _, ok := c.Get(1, k); !ok {
			t.Errorf("frame %d should have survived", k)
		}
	}
	if s := c.Stats(); s.Used != 240 || s.Frames != 3 {
		t.Errorf("budget overrun: %+v", s)
	}
}

func TestCacheEvictsManyForOneLargeEntry(t *testing.T) {
	c := NewCache(400)
	c.Put(1, 0, frameOf(10)) // 80 bytes
	c.Put(1, 1, frameOf(10))
	c.Put(1, 2, frameOf(48)) // 384 bytes: must evict both elders
	if _, ok := c.Get(1, 0); ok {
		t.Error("frame 0 should have been evicted")
	}
	if _, ok := c.Get(1, 1); ok {
		t.Error("frame 1 should have been evicted")
	}
	if _, ok := c.Get(1, 2); !ok {
		t.Error("large frame should be cached")
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewCache(100)
	c.Put(1, 0, frameOf(5)) // 40 bytes, fits
	c.Put(1, 1, frameOf(50))
	if _, ok := c.Get(1, 1); ok {
		t.Error("entry above the whole budget must not be cached")
	}
	if _, ok := c.Get(1, 0); !ok {
		t.Error("oversized Put must not disturb existing entries")
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, c := range []*Cache{NewCache(0), NewCache(-1), nil} {
		c.Put(1, 0, frameOf(4))
		if _, ok := c.Get(1, 0); ok {
			t.Error("disabled cache returned a hit")
		}
		if s := c.Stats(); s.Frames != 0 {
			t.Errorf("disabled cache stats %+v", s)
		}
	}
}

func TestCacheDuplicatePutKeepsAccounting(t *testing.T) {
	c := NewCache(1000)
	c.Put(1, 0, frameOf(10))
	c.Put(1, 0, frameOf(10))
	if s := c.Stats(); s.Used != 80 || s.Frames != 1 {
		t.Errorf("duplicate Put double-counted: %+v", s)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1000)
	before := c.Stats()
	c.Get(1, 0)
	c.Put(1, 0, frameOf(4))
	c.Get(1, 0)
	c.Get(1, 1)
	if s := c.Stats(); s.Hits-before.Hits != 1 || s.Misses-before.Misses != 2 {
		t.Errorf("%d hits / %d misses, want 1 / 2", s.Hits-before.Hits, s.Misses-before.Misses)
	}
}

func TestCacheNamespaceIsolation(t *testing.T) {
	// Two engines sharing one cache must never see each other's frames:
	// the same frame index under different namespaces is two entries.
	c := NewCache(1000)
	a, b := frameOf(3), frameOf(4)
	c.Put(1, 0, a)
	c.Put(2, 0, b)
	if got, ok := c.Get(1, 0); !ok || got != a {
		t.Error("namespace 1 lost its frame 0")
	}
	if got, ok := c.Get(2, 0); !ok || got != b {
		t.Error("namespace 2 lost its frame 0")
	}
	if s := c.Stats(); s.Frames != 2 || s.Used != 3*8+4*8 {
		t.Errorf("stats %+v, want two distinct entries", s)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64 * 8 * 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g + i) % 10
				if _, ok := c.Get(1, key); !ok {
					c.Put(1, key, frameOf(64))
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Used > s.Budget {
		t.Errorf("budget overrun under concurrency: %+v", s)
	}
}
