package service

import (
	"bytes"
	"testing"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := []byte(`{"size":1}`), []byte(`{"size":2}`), []byte(`{"size":3}`)
	c.Put("a", a)
	c.Put("b", b)
	if _, ok := c.Get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a should be cached")
	}
	c.Put("d", d)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if got, ok := c.Get("a"); !ok || !bytes.Equal(got, a) {
		t.Fatal("a should have survived the eviction")
	}
	if got, ok := c.Get("d"); !ok || !bytes.Equal(got, d) {
		t.Fatal("d should be cached")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUCachePutRefreshesValue(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte(`{"size":1}`))
	v2 := []byte(`{"size":9}`)
	c.Put("a", v2)
	if got, _ := c.Get("a"); !bytes.Equal(got, v2) {
		t.Fatal("Put of an existing key must replace the value")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(-1)
	c.Put("a", []byte(`{}`))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must always miss")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

func TestSolveCacheKeyDistinguishesOptions(t *testing.T) {
	base := solveCacheKey("h", 3, 3, 1, false)
	for name, other := range map[string]string{
		"different hash": solveCacheKey("g", 3, 3, 1, false),
		"different k":    solveCacheKey("h", 4, 3, 1, false),
		"different t":    solveCacheKey("h", 3, 4, 1, false),
		"different seed": solveCacheKey("h", 3, 3, 2, false),
		"local delta":    solveCacheKey("h", 3, 3, 1, true),
	} {
		if other == base {
			t.Errorf("%s: key collides with base", name)
		}
	}
	if solveCacheKey("h", 3, 3, 1, false) != base {
		t.Error("identical parameters must give identical keys")
	}
}
