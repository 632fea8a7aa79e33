package service

import (
	"container/list"
	"fmt"
	"sync"
)

// lruCache is a thread-safe fixed-capacity LRU map from cache key to a
// solve answer, held once, as the exact bytes /v1/solve writes: the
// leader encodes them once, and every hit writes them as they are. Keys
// are built by solveCacheKey from the canonical graph hash plus every
// option that influences the result, so a hit is guaranteed to be the
// byte-identical answer the solver would recompute. Callers must not
// modify a body they Put or Get. A capacity ≤ 0 disables caching (every
// Get misses, Put is a no-op).
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached body for key and refreshes its recency.
func (c *lruCache) Get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lruCache) Put(key string, body []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// solveCacheKey identifies a solve result: the canonical graph hash plus
// every solver parameter that influences the output. Same key ⇒ the
// deterministic solver would return the identical solution.
func solveCacheKey(graphHash string, k, t int, seed int64, localDelta bool) string {
	return fmt.Sprintf("%s|k=%d|t=%d|seed=%d|ld=%v", graphHash, k, t, seed, localDelta)
}
