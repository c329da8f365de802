package query

import "container/list"

// lru is a fixed-capacity map that evicts its least recently used entry
// once it is full. It is not safe for concurrent use: ResultCache guards
// its one with a mutex.
type lru[K comparable, V any] struct {
	cap   int
	ll    *list.List // of *lruEntry[K, V]; front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) lru[K, V] {
	return lru[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element, capacity)}
}

// get returns the value stored under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores v under k as the most recently used entry, replacing any
// value already there, and evicts the least recently used entry when the
// map grows beyond capacity.
func (c *lru[K, V]) put(k K, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) len() int { return c.ll.Len() }

// purge removes every entry.
func (c *lru[K, V]) purge() {
	c.ll.Init()
	clear(c.items)
}
