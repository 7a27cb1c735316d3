package cache

import (
	"slices"
	"testing"
	"unsafe"
)

// arrayOf identifies the line array backing c (nil once released).
func arrayOf(c *Cache) *line {
	if len(c.lines) == 0 {
		return nil
	}
	return &c.lines[0]
}

func TestLineIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Errorf("sizeof(line) = %d, want 24", got)
	}
}

// exercise drives a fixed access pattern through c and returns what a
// fresh cache must reproduce: hit/miss counts and the eviction order.
func exercise(c *Cache) (hits, misses uint64, evicted []uint64) {
	c.OnEvict = func(la uint64) { evicted = append(evicted, la) }
	for i := uint64(0); i < 400; i++ {
		la := (i * 7) % 97
		c.Access(la, i%3 == 0)
		if i%5 == 0 {
			c.Fill(la + 1000)
		}
		if i%11 == 0 {
			c.Invalidate(la)
		}
	}
	return c.Hits, c.Misses, evicted
}

// TestRecycledCacheIsFresh dirties a cache, releases it, and checks that a
// cache built on the recycled array starts empty: no stale tag hits, zero
// counters and clock, no eviction hook, and the same behavior as a cache on
// a freshly made array.
func TestRecycledCacheIsFresh(t *testing.T) {
	cfg := Config{Name: "recycle", Sets: 16, Ways: 3, Latency: 1, DeadBlockAware: true}
	freshHits, freshMisses, freshEvicted := exercise(&Cache{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways)})

	recycled := false
	// sync.Pool may drop an array (a GC, or at random under -race), so
	// retry until one comes back.
	for try := 0; try < 50 && !recycled; try++ {
		old := NewCache(cfg)
		exercise(old)
		prev := arrayOf(old)
		old.release()
		if arrayOf(old) != nil {
			t.Fatal("release left the array attached to the old cache")
		}

		c := NewCache(cfg)
		recycled = arrayOf(c) == prev
		if c.Hits != 0 || c.Misses != 0 || c.clock != 0 || c.OnEvict != nil {
			t.Fatalf("new cache not reset: hits %d misses %d clock %d hook %v",
				c.Hits, c.Misses, c.clock, c.OnEvict != nil)
		}
		for i, l := range c.lines {
			if l != (line{}) {
				t.Fatalf("line %d = %+v, want zero", i, l)
			}
		}
		for la := uint64(0); la < 1200; la++ {
			if c.Lookup(la) {
				t.Fatalf("stale tag %d hits in a new cache", la)
			}
		}
		hits, misses, evicted := exercise(c)
		if hits != freshHits || misses != freshMisses || !slices.Equal(evicted, freshEvicted) {
			t.Fatalf("recycled cache diverges from a fresh one: %d/%d hits/misses vs %d/%d, %d vs %d evictions",
				hits, misses, freshHits, freshMisses, len(evicted), len(freshEvicted))
		}
		c.release()
	}
	if !recycled {
		t.Error("no array was ever recycled")
	}
}

// TestReleaseNeverSharesArrays releases a hierarchy twice after giving it a
// shared LLC, then checks that no array is backing two live caches and that
// the shared LLC kept its own.
func TestReleaseNeverSharesArrays(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	shared := NewCache(cfg.LLC)
	shared.Access(42, false)
	sharedArr := arrayOf(shared)

	h := NewHierarchy(cfg)
	h.SetSharedLLC(shared, NewDRAM(cfg.DRAM))
	h.Release()
	h.Release()
	if arrayOf(shared) != sharedArr || !shared.Lookup(42) {
		t.Fatal("Release recycled the shared LLC")
	}

	c := NewCache(cfg.L1D)
	c.release()
	c.release()

	live := map[*line]string{sharedArr: "shared LLC"}
	claim := func(name string, c *Cache) {
		a := arrayOf(c)
		if prev, dup := live[a]; dup {
			t.Fatalf("%s and %s share one line array", prev, name)
		}
		live[a] = name
	}
	for i := 0; i < 4; i++ {
		h := NewHierarchy(cfg)
		claim("L1D", h.L1D)
		claim("L2", h.L2)
		claim("LLC", h.LLC)
		claim("cache", NewCache(cfg.LLC))
		claim("cache", NewCache(cfg.L1D))
	}
}

// TestHierarchyNewReleaseAllocs guards the recycling: once warm, building
// and releasing the default hierarchy allocates a small constant number of
// objects (16: the structs, the prefetcher and DRAM tables, and one pooled
// slice header per cache), with no per-set term — the default geometry has
// 6208 sets.
func TestHierarchyNewReleaseAllocs(t *testing.T) {
	for i := 0; i < 3; i++ {
		NewHierarchy(DefaultHierarchyConfig()).Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		NewHierarchy(DefaultHierarchyConfig()).Release()
	})
	if allocs > 20 {
		t.Errorf("NewHierarchy+Release allocates %.1f objects once warm, want at most 20", allocs)
	}
}
