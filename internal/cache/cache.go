// Package cache implements the memory-hierarchy substrate: set-associative
// caches with pluggable replacement, a stride prefetcher (L1-D) and a
// streamer (L2), a DRAM bank/row-buffer timing model, and a directory-based
// coherence layer with the core-valid-bit (CV-bit) pinning hook Constable
// relies on in multi-core systems (§6.6 of the paper). The configuration
// defaults follow Table 2.
package cache

import (
	"fmt"
	"sync"

	"constable/internal/isa"
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency int // hit latency contribution in core cycles
	// DeadBlockAware approximates the paper's dead-block-aware LLC
	// replacement: lines that were never re-referenced are preferred victims.
	DeadBlockAware bool
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * isa.CachelineBytes }

// line is one way of one set. The two words lead and the flags pack into
// the tail, so a line is 24 bytes.
type line struct {
	tag     uint64
	lastUse uint64
	valid   bool
	dirty   bool
	reused  bool
}

// linePools recycles line arrays across caches, one sync.Pool of *[]line
// per array length (Sets×Ways), so a short simulation does not pay for
// zeroing and collecting megabytes of fresh cache state. Arrays enter a
// pool only via (*Cache).release and leave it only via NewCache.
var (
	linePoolsMu sync.Mutex
	linePools   = map[int]*sync.Pool{}
)

func linePool(n int) *sync.Pool {
	linePoolsMu.Lock()
	defer linePoolsMu.Unlock()
	p := linePools[n]
	if p == nil {
		p = new(sync.Pool)
		linePools[n] = p
	}
	return p
}

// getLines returns a zeroed array of n lines, recycled when one is pooled.
func getLines(n int) []line {
	if p, ok := linePool(n).Get().(*[]line); ok {
		clear(*p)
		return *p
	}
	return make([]line, n)
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg Config
	// lines holds every set back to back: set s is
	// lines[s*Ways : (s+1)*Ways].
	lines []line
	clock uint64

	Hits   uint64
	Misses uint64
	// OnEvict, when non-nil, is called with the line address of every
	// evicted line (clean or dirty). Constable-AMT-I (Fig. 22) hooks the
	// L1-D eviction stream here.
	OnEvict func(lineAddr uint64)
}

// NewCache builds a cache from cfg. Sets must be a power of two.
func NewCache(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d must be a positive power of two", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways))
	}
	return &Cache{cfg: cfg, lines: getLines(cfg.Sets * cfg.Ways)}
}

// release returns c's line array to the recycling pool. c must not be used
// afterwards; a second release is a no-op, so no array is pooled twice.
func (c *Cache) release() {
	if c.lines == nil {
		return
	}
	lines := c.lines
	c.lines = nil
	linePool(len(lines)).Put(&lines)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr converts a byte address to a cacheline address.
func LineAddr(addr uint64) uint64 { return addr / isa.CachelineBytes }

// set returns the ways of lineAddr's set.
func (c *Cache) set(lineAddr uint64) []line {
	w := c.cfg.Ways
	base := (int(lineAddr) & (c.cfg.Sets - 1)) * w
	return c.lines[base : base+w : base+w]
}

// Lookup probes the cache without changing replacement state.
func (c *Cache) Lookup(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			return true
		}
	}
	return false
}

// Access looks up lineAddr, fills on miss, and returns whether it hit.
// write marks the line dirty on a store.
func (c *Cache) Access(lineAddr uint64, write bool) bool {
	c.clock++
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			c.Hits++
			l.lastUse = c.clock
			l.reused = true
			l.dirty = l.dirty || write
			return true
		}
	}
	c.Misses++
	c.fill(lineAddr, write)
	return false
}

// Fill inserts lineAddr without counting a demand access (prefetch path).
func (c *Cache) Fill(lineAddr uint64) {
	if c.Lookup(lineAddr) {
		return
	}
	c.clock++
	c.fill(lineAddr, false)
}

func (c *Cache) fill(lineAddr uint64, write bool) {
	set := c.set(lineAddr)
	victim := 0
	// Prefer invalid ways, then (for dead-block-aware) never-reused lines,
	// then LRU.
	best := ^uint64(0)
	foundDead := false
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = i
			best = 0
			foundDead = true
			break
		}
		if c.cfg.DeadBlockAware && !l.reused {
			if !foundDead || l.lastUse < best {
				victim, best, foundDead = i, l.lastUse, true
			}
			continue
		}
		if !foundDead && l.lastUse < best {
			victim, best = i, l.lastUse
		}
	}
	v := &set[victim]
	if v.valid {
		if c.OnEvict != nil {
			c.OnEvict(v.tag)
		}
	}
	*v = line{tag: lineAddr, valid: true, dirty: write, lastUse: c.clock}
}

// Invalidate drops lineAddr if present (snoop handling). Reports whether the
// line was present.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			l.valid = false
			return true
		}
	}
	return false
}

// MissRate returns misses / (hits+misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
