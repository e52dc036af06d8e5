package devreg

import (
	"testing"

	"accqoc/internal/cmat"
)

// TestTargetCacheLRU pins the prefetcher's target cache: it holds at most
// its cap, Get and a repeated Put refresh a target's recency, the least
// recently used target is the one evicted, and puts that carry nothing to
// train toward are ignored.
func TestTargetCacheLRU(t *testing.T) {
	u := cmat.Identity(2)
	target := func(key string) *Target { return &Target{Key: key, NumQubits: 1, Unitary: u} }
	c := NewTargetCache(3)
	for _, key := range []string{"a", "b", "c"} {
		c.Put(target(key))
	}
	// Recency now, most recent first: c b a. Get refreshes a, a repeated
	// Put refreshes b (and replaces its value): b a c.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before any eviction")
	}
	fresh := target("b")
	c.Put(fresh)
	if c.Len() != 3 {
		t.Fatalf("refreshing puts changed the size to %d", c.Len())
	}
	c.Put(target("d")) // evicts c, the least recently used
	if c.Len() != 3 {
		t.Fatalf("cache holds %d targets, cap 3", c.Len())
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived although it was the least recently used")
	}
	if got, ok := c.Get("b"); !ok || got != fresh {
		t.Fatalf("b = %v, %t; want the value of its last put", got, ok)
	}
	c.Put(target("e")) // recency b d a → evicts a
	for key, want := range map[string]bool{"a": false, "b": true, "d": true, "e": true} {
		if _, ok := c.Get(key); ok != want {
			t.Fatalf("after the second eviction %q present = %t, want %t", key, ok, want)
		}
	}

	for name, tg := range map[string]*Target{
		"nil":          nil,
		"key-less":     {NumQubits: 1, Unitary: u},
		"unitary-less": {Key: "f", NumQubits: 1},
	} {
		c.Put(tg)
		if c.Len() != 3 {
			t.Fatalf("a %s put changed the size to %d", name, c.Len())
		}
	}
	if _, ok := c.Get("f"); ok {
		t.Fatal("a unitary-less put was stored")
	}
}
