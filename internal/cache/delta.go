package cache

// DeltaPrefetcher is a PC-indexed delta-pattern (delta-correlating) L1-D
// prefetcher: each entry keeps a short ring of recent address deltas for its
// load PC and predicts the next delta by finding the most recent earlier
// occurrence of the current (previous, current) delta pair and replaying what
// followed it. A per-entry confidence counter tracks whether those
// predictions come true; prefetches issue only at or above the configured
// threshold. Unlike the stride prefetcher it captures repeating multi-delta
// patterns (e.g. +8,+8,+48 from a strided walk over padded records), which
// pointer-dense workloads exhibit around global-stable structures.
type DeltaPrefetcher struct {
	table     []deltaEntry
	mask      uint64
	degree    int
	threshold int
	maxConf   int
	deltas    int
	Issued    uint64
	// out backs Observe's result, reused on every call.
	out []uint64
}

type deltaEntry struct {
	pc       uint64
	lastAddr uint64
	// hist is a circular delta ring: head is the next write slot, so the
	// newest delta sits at (head-1+deltas) % deltas.
	hist      [MaxDeltaHist]int64
	head      int
	filled    int
	predDelta int64 // delta predicted for the NEXT access (0 = no prediction)
	conf      int
	valid     bool
}

// NewDeltaPrefetcher builds a delta-pattern prefetcher from cfg.
func NewDeltaPrefetcher(cfg PrefetchConfig) *DeltaPrefetcher {
	n := nextPow2(cfg.Entries)
	return &DeltaPrefetcher{
		table:     make([]deltaEntry, n),
		mask:      uint64(n - 1),
		degree:    cfg.Degree,
		threshold: cfg.Threshold,
		maxConf:   cfg.MaxConf,
		deltas:    cfg.Deltas,
		out:       make([]uint64, 0, cfg.Degree),
	}
}

// IssuedCount returns how many prefetches have been issued.
func (p *DeltaPrefetcher) IssuedCount() uint64 { return p.Issued }

// Observe trains on a demand load and returns the line addresses to
// prefetch (possibly none), valid until the next call.
func (p *DeltaPrefetcher) Observe(pc, addr uint64) []uint64 {
	e := &p.table[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = deltaEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	delta := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if delta == 0 {
		return nil
	}

	// Score the previous prediction against what actually happened.
	if e.predDelta != 0 {
		if delta == e.predDelta {
			if e.conf < p.maxConf {
				e.conf++
			}
		} else if e.conf > 0 {
			e.conf--
		}
	}

	// Record the delta, then correlate on the (previous, current) delta
	// pair: the most recent earlier occurrence of the pair predicts that the
	// delta that followed it will follow again. Pair matching (rather than
	// single-delta matching) is what disambiguates repeating patterns whose
	// deltas individually recur at several distances.
	n := p.deltas
	prevIdx := (e.head - 1 + n) % n
	hasPrev := e.filled > 0
	prev := e.hist[prevIdx]
	pushed := e.head
	e.hist[pushed] = delta
	e.head = (e.head + 1) % n
	if e.filled < n {
		e.filled++
	}
	match := -1
	if hasPrev && prev != 0 {
		for i := 1; i <= e.filled-2; i++ {
			k := (pushed - i + n) % n
			j := (k - 1 + n) % n
			if e.hist[k] == delta && e.hist[j] == prev {
				match = k
				break
			}
		}
	}
	if match < 0 {
		e.predDelta = 0
		return nil
	}
	e.predDelta = e.hist[(match+1)%n]
	if e.predDelta == 0 || e.conf < p.threshold {
		return nil
	}

	// Replay the recorded pattern from the match point; once the walk wraps
	// onto the just-recorded delta, keep extrapolating with the predicted
	// delta.
	out := p.out[:0]
	next := int64(addr)
	idx := match
	for i := 0; i < p.degree; i++ {
		idx = (idx + 1) % n
		d := e.hist[idx]
		if idx == pushed {
			d = e.predDelta
		}
		if d == 0 {
			break
		}
		next += d
		if next <= 0 {
			break
		}
		out = append(out, LineAddr(uint64(next)))
		p.Issued++
	}
	return out
}
