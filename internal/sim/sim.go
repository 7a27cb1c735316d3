// Package sim wires workloads, the core model, the memory hierarchy,
// Constable and the competing mechanisms into runnable configurations, and
// is the entry point the experiment drivers, the CLI tools and the examples
// use. It owns the golden-check methodology (§8.5): every run verifies each
// retiring load against the functional model and fails loudly on a mismatch.
//
// Run returns a structured RunResult — identity, configuration digest,
// cycles/IPC, the counter snapshot populated through the stats registry,
// the per-mechanism breakdown and the power summary. A result's
// full-fidelity serialized form is the ResultEnvelope, which additionally
// carries the typed programmatic views excluded from the public JSON schema
// and stamps the producing JobSpec's content hash; the service layer uses
// it both on disk (the persistent store) and on the wire (server↔worker
// transport). The mechanism registry (Mechanisms, MechanismByName) is the
// single name→configuration table shared by every driver and the HTTP API.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/inspector"
	"constable/internal/pipeline"
	"constable/internal/power"
	"constable/internal/stats"
	"constable/internal/vpred"
	"constable/internal/workload"
)

// Mechanism selects which latency-tolerance / elimination mechanisms a run
// enables on top of the strong baseline (which always includes MRN, move and
// zero elimination, constant and branch folding).
type Mechanism struct {
	EVES      bool
	Constable bool
	RFP       bool
	ELAR      bool

	// IdealConstable eliminates all global-stable loads (oracle, §4.4).
	IdealConstable bool
	// IdealStableLVP perfectly value-predicts all global-stable loads.
	IdealStableLVP bool
	// IdealDataFetchElim upgrades IdealStableLVP to skip the data fetch.
	IdealDataFetchElim bool

	// ConstableConfig overrides the default Constable configuration
	// (AMT-I variant, mode filters, full-address AMT...).
	ConstableConfig *constable.Config

	// Component axes (the mechanism zoo): each selects a named variant of
	// one microarchitectural component, orthogonal to the mechanism set
	// above. The empty string selects the axis default (TAGE, stride
	// prefetcher, no L1-D hit/miss predictor); MechanismAxes lists the
	// variants. The optional config pointers override the chosen variant's
	// parameterization.
	BPred    string
	Prefetch string
	L1DPred  string

	BPredConfig    *bpred.Config
	PrefetchConfig *cache.PrefetchConfig
	L1DPredConfig  *cache.L1DPredConfig
}

// Options describes one simulation run.
type Options struct {
	Workload *workload.Spec
	APX      bool
	// Instructions is the committed-path instruction budget per thread.
	Instructions uint64
	// Threads selects noSMT (1) or SMT2 (2). With SMT2 the same workload
	// runs in both hardware contexts.
	Threads int

	Mech Mechanism

	// Core, when non-nil, overrides the default core configuration (load-
	// width and depth scaling sweeps).
	Core *pipeline.Config

	// StablePCs primes the oracles and the Fig. 6 accounting; when nil and
	// an oracle is requested, the stable-load pre-pass runs automatically.
	StablePCs map[uint64]bool
}

// RunIdentity names what a run simulated: the workload, the resolved
// mechanism preset ("custom" for ad-hoc sets), and the run shape.
type RunIdentity struct {
	Workload     string `json:"workload"`
	Category     string `json:"category"`
	Mechanism    string `json:"mechanism"`
	Threads      int    `json:"threads"`
	APX          bool   `json:"apx,omitempty"`
	Instructions uint64 `json:"instructions"`
}

// MechanismStats is the per-mechanism slice of a run's counter snapshot:
// one entry per active mechanism, carrying the counters that describe it
// (structure events, eliminated/value-predicted loads, golden checks).
type MechanismStats struct {
	Name     string         `json:"name"`
	Counters stats.Snapshot `json:"counters"`
}

// RunResult is the structured outcome of one run: identity, configuration
// digest, headline performance, the full counter snapshot populated through
// the stats registry, the per-mechanism breakdown, and the power summary.
// The typed Pipeline/Constable views carry the same values for programmatic
// consumers; the snapshot is the serialization schema.
type RunResult struct {
	Identity     RunIdentity      `json:"identity"`
	ConfigDigest string           `json:"config_digest"`
	Cycles       uint64           `json:"cycles"`
	IPC          float64          `json:"ipc"`
	Counters     stats.Snapshot   `json:"counters"`
	Mechanisms   []MechanismStats `json:"mechanisms,omitempty"`
	Power        power.Breakdown  `json:"power"`

	Pipeline  pipeline.Stats  `json:"-"`
	Constable constable.Stats `json:"-"`

	L1DAccesses  uint64 `json:"-"`
	L2Accesses   uint64 `json:"-"`
	LLCAccesses  uint64 `json:"-"`
	DTLBAccesses uint64 `json:"-"`

	EVESPredictions uint64 `json:"-"`
	EVESMispredicts uint64 `json:"-"`
}

// Clone returns a deep copy of r: the copy shares no mutable state (counter
// maps, per-mechanism snapshots) with the original, so mutating one never
// affects the other. The service layer's result cache hands out clones on
// every hit for exactly this reason. A nil receiver clones to nil.
func (r *RunResult) Clone() *RunResult {
	if r == nil {
		return nil
	}
	c := *r
	c.Counters = r.Counters.Clone()
	if r.Mechanisms != nil {
		c.Mechanisms = make([]MechanismStats, len(r.Mechanisms))
		for i, m := range r.Mechanisms {
			c.Mechanisms[i] = MechanismStats{Name: m.Name, Counters: m.Counters.Clone()}
		}
	}
	c.Pipeline.EliminatedByMode = cloneCountMap(r.Pipeline.EliminatedByMode)
	c.Pipeline.RetiredStableByMode = cloneCountMap(r.Pipeline.RetiredStableByMode)
	c.Pipeline.EliminatedStableByMode = cloneCountMap(r.Pipeline.EliminatedStableByMode)
	return &c
}

func cloneCountMap(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Interned counter IDs for the run-level memory-hierarchy counters.
var (
	cL1DAccesses  = stats.Intern("mem.l1d_accesses")
	cL2Accesses   = stats.Intern("mem.l2_accesses")
	cLLCAccesses  = stats.Intern("mem.llc_accesses")
	cDTLBAccesses = stats.Intern("mem.dtlb_accesses")
)

// ConfigDigest returns the sha256 content hash of the fully-resolved run
// configuration (workload, mechanism, core, budget). Two runs with equal
// digests simulated the same thing.
func configDigest(opts Options, core pipeline.Config) string {
	doc := struct {
		Workload     string               `json:"workload"`
		APX          bool                 `json:"apx"`
		Instructions uint64               `json:"instructions"`
		Threads      int                  `json:"threads"`
		Mech         Mechanism            `json:"mech"`
		Core         pipeline.Config      `json:"core"`
		Constable    constable.Config     `json:"constable"`
		BPred        bpred.Config         `json:"bpred"`
		Prefetch     cache.PrefetchConfig `json:"prefetch"`
		L1DPred      *cache.L1DPredConfig `json:"l1dpred,omitempty"`
		StablePCs    []uint64             `json:"stable_pcs,omitempty"`
	}{Workload: opts.Workload.Name, APX: opts.APX, Instructions: opts.Instructions,
		Threads: opts.Threads, Mech: opts.Mech, Core: core, Constable: constable.DefaultConfig(),
		BPred: opts.Mech.ResolvedBPredConfig(), Prefetch: opts.Mech.ResolvedPrefetchConfig()}
	if opts.Mech.ConstableConfig != nil {
		doc.Constable = *opts.Mech.ConstableConfig
	}
	if lcfg, on := opts.Mech.ResolvedL1DPredConfig(); on {
		doc.L1DPred = &lcfg
	}
	if opts.StablePCs != nil {
		// A caller-primed stable-PC set changes oracle behavior and the
		// Fig. 6 accounting, so it is part of what was simulated.
		for pc, ok := range opts.StablePCs {
			if ok {
				doc.StablePCs = append(doc.StablePCs, pc)
			}
		}
		sort.Slice(doc.StablePCs, func(i, j int) bool { return doc.StablePCs[i] < doc.StablePCs[j] })
	}
	b, err := json.Marshal(doc)
	if err != nil {
		// Every field above is a plain struct of scalars; failure would be a
		// programming error, not an input error.
		panic(fmt.Sprintf("sim: config digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stableCache memoizes the global-stable pre-pass per (workload, APX).
var stableCache sync.Map

type stableKey struct {
	name string
	apx  bool
	n    uint64
}

// StableAnalysis runs the Load Inspector pre-pass over the first n
// instructions of the workload and returns the analysis (memoized). Trace
// names are content hashes, so the (name, apx, n) memo key stays sound for
// trace-backed specs.
func StableAnalysis(spec *workload.Spec, apx bool, n uint64) (*inspector.Inspector, error) {
	key := stableKey{spec.Name, apx, n}
	if v, ok := stableCache.Load(key); ok {
		return v.(*inspector.Inspector), nil
	}
	st, err := spec.NewStream(apx, n)
	if err != nil {
		return nil, err
	}
	ins := inspector.New()
	for i := uint64(0); i < n; i++ {
		d, ok := st.Next()
		if !ok {
			break
		}
		ins.Observe(&d)
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("sim %s: stable pre-pass: %w", spec.Name, err)
	}
	stableCache.Store(key, ins)
	return ins, nil
}

// Run executes one simulation and returns its result. It returns an error if
// the workload cannot be built or the golden check fails.
func Run(opts Options) (*RunResult, error) {
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	if opts.Instructions == 0 {
		opts.Instructions = 100_000
	}

	cfg := pipeline.DefaultConfig()
	if opts.Core != nil {
		cfg = *opts.Core
	}
	cfg.Threads = opts.Threads

	att, cons, eves, err := buildAttachments(opts)
	if err != nil {
		return nil, err
	}

	streams := make([]pipeline.Stream, opts.Threads)
	wlStreams := make([]workload.Stream, opts.Threads)
	for i := range streams {
		st, err := opts.Workload.NewStream(opts.APX, opts.Instructions)
		if err != nil {
			return nil, err
		}
		wlStreams[i] = st
		streams[i] = st
	}

	// The result copies every counter it needs out of the hierarchy, so its
	// cache arrays are recycled for the next run once Run returns (or
	// panics).
	hier := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	defer hier.Release()
	core := pipeline.NewCore(cfg, att, hier, streams...)

	// Generous cycle bound: IPC below 0.05 would indicate a deadlock.
	maxCycles := opts.Instructions * uint64(opts.Threads) * 20
	if maxCycles < 1_000_000 {
		maxCycles = 1_000_000
	}
	if err := core.Run(maxCycles); err != nil {
		return nil, fmt.Errorf("sim %s: %w", opts.Workload.Name, err)
	}
	for _, ws := range wlStreams {
		if serr := ws.Err(); serr != nil {
			return nil, fmt.Errorf("sim %s: %w", opts.Workload.Name, serr)
		}
	}
	st := core.Stats
	// A trace shorter than the budget ends the stream early; that is the
	// whole trace replayed, not a deadlock.
	perThread := opts.Instructions
	if ti := opts.Workload.TraceInstructions(); ti > 0 && ti < perThread {
		perThread = ti
	}
	want := perThread * uint64(opts.Threads)
	if st.Retired < want {
		return nil, fmt.Errorf("sim %s: retired only %d of %d instructions in %d cycles (deadlock?)",
			opts.Workload.Name, st.Retired, want, st.Cycles)
	}

	res := &RunResult{
		Identity: RunIdentity{
			Workload:     opts.Workload.Name,
			Category:     string(opts.Workload.Category),
			Mechanism:    MechanismName(opts.Mech),
			Threads:      opts.Threads,
			APX:          opts.APX,
			Instructions: opts.Instructions,
		},
		ConfigDigest: configDigest(opts, cfg),
		Cycles:       st.Cycles,
		IPC:          st.IPC(),
		Pipeline:     st,
		L1DAccesses:  hier.L1DLoadAccesses + hier.L1DStoreAccesses,
		L2Accesses:   hier.L2Accesses,
		LLCAccesses:  hier.LLCAccesses,
		DTLBAccesses: hier.DTLBAccesses,
	}
	if cons != nil {
		res.Constable = cons.Stats
	}
	if eves != nil {
		res.EVESPredictions = eves.Predictions
		res.EVESMispredicts = eves.Mispredicts
	}

	ev := power.Events{
		FetchedUops:  st.FetchedUops,
		RenamedUops:  st.RenamedUops,
		RSAllocs:     st.RSAllocs,
		RSIssues:     st.RSAllocs,
		ROBAllocs:    st.ROBAllocs,
		ALUOps:       st.ALUOps,
		AGUOps:       st.AGUOps,
		L1DAccesses:  res.L1DAccesses,
		DTLBAccesses: res.DTLBAccesses,
		L2Accesses:   res.L2Accesses,
		LLCAccesses:  res.LLCAccesses,
		Cycles:       st.Cycles,
	}
	if cons != nil {
		// Rename lookups and writeback confidence compares read the SLD;
		// can_eliminate flag updates write it.
		ev.SLDReads = cons.Stats.SLDLookups + cons.Stats.SLDConfUpdates
		ev.SLDWrites = cons.Stats.SLDWriteOps + cons.Stats.CanElimSets
		ev.RMTOps = st.RenamedUops
		ev.AMTReads = st.StoreExecs
		ev.AMTWrites = cons.Stats.CanElimSets
	}
	res.Power = power.Compute(ev)

	// Populate the counter snapshot through the interned registry: every
	// producing package emits its own counters by stable integer ID.
	var set stats.CounterSet
	st.EmitCounters(&set)
	if cons != nil {
		cons.Stats.EmitCounters(&set)
	}
	if eves != nil {
		eves.EmitCounters(&set)
	}
	if att.RFP != nil {
		att.RFP.EmitCounters(&set)
	}
	if att.ELAR != nil {
		att.ELAR.EmitCounters(&set)
	}
	ev.EmitCounters(&set)
	hier.EmitCounters(&set)
	set.Add(cL1DAccesses, res.L1DAccesses)
	set.Add(cL2Accesses, res.L2Accesses)
	set.Add(cLLCAccesses, res.LLCAccesses)
	set.Add(cDTLBAccesses, res.DTLBAccesses)
	res.Counters = set.Snapshot()
	res.Mechanisms = mechanismBreakdown(opts.Mech, res.Counters)
	return res, nil
}

// mechanismBreakdown slices the run snapshot into per-mechanism counter
// groups: each active mechanism gets its structure counters plus the
// retirement-side counters that describe its effect.
func mechanismBreakdown(m Mechanism, snap stats.Snapshot) []MechanismStats {
	pick := func(dst stats.Snapshot, names ...string) {
		for _, n := range names {
			if v, ok := snap[n]; ok {
				dst[n] = v
			}
		}
	}
	var out []MechanismStats
	if m.Constable || m.IdealConstable {
		// Names match the mechanism registry's vocabulary, so clients can
		// correlate Identity.Mechanism and /v1/mechanisms with the breakdown.
		name := "constable"
		if m.IdealConstable {
			name = "ideal"
		}
		c := snap.Filter("constable.")
		pick(c, "pipeline.eliminated_loads", "pipeline.eliminated_non_stable",
			"pipeline.golden_checks", "pipeline.ordering_violations",
			"pipeline.eliminated_that_violated",
			"power.sld_reads", "power.sld_writes", "power.amt_reads", "power.amt_writes")
		out = append(out, MechanismStats{Name: name, Counters: c})
	}
	if m.EVES || m.IdealStableLVP {
		name := "eves"
		if m.IdealStableLVP {
			name = "ideal-lvp"
			if m.IdealDataFetchElim {
				name = "ideal-lvp-dfe"
			}
		}
		c := snap.Filter("eves.")
		pick(c, "pipeline.value_predicted", "pipeline.value_mispredicts")
		out = append(out, MechanismStats{Name: name, Counters: c})
	}
	if m.RFP {
		out = append(out, MechanismStats{Name: "rfp", Counters: snap.Filter("rfp.")})
	}
	if m.ELAR {
		c := snap.Filter("elar.")
		out = append(out, MechanismStats{Name: "elar", Counters: c})
	}
	// Component axes appear in the breakdown only when they deviate from the
	// default, so preset runs keep their existing shape. Axis entries are
	// named like the qualified-name terms ("prefetch=delta"), correlating
	// with Identity.Mechanism and the /v1/mechanisms axis schema.
	cm, err := m.CanonicalAxes()
	if err != nil {
		return out
	}
	if cm.BPred != "" {
		c := stats.Snapshot{}
		pick(c, "pipeline.branches", "pipeline.branch_mispredicts")
		out = append(out, MechanismStats{Name: "bpred=" + cm.BPred, Counters: c})
	}
	if cm.Prefetch != "" {
		c := snap.Filter("prefetch.")
		out = append(out, MechanismStats{Name: "prefetch=" + cm.Prefetch, Counters: c})
	}
	if cm.L1DPred != "" {
		c := snap.Filter("l1dpred.")
		out = append(out, MechanismStats{Name: "l1dpred=" + cm.L1DPred, Counters: c})
	}
	return out
}

// buildAttachments assembles the mechanism set for a run: the registry's
// table-based mechanisms plus the oracles, which need the stable-load
// pre-pass.
func buildAttachments(opts Options) (pipeline.Attachments, *constable.Constable, *vpred.EVES, error) {
	m := opts.Mech
	att, cons, eves, err := m.NewAttachments()
	if err != nil {
		return att, nil, nil, err
	}

	needStable := m.NeedsStableAnalysis() || opts.StablePCs != nil
	if needStable {
		stable := opts.StablePCs
		if stable == nil {
			ins, err := StableAnalysis(opts.Workload, opts.APX, opts.Instructions)
			if err != nil {
				return att, nil, nil, err
			}
			stable = ins.StableLoadPCs()
		}
		att.StablePCs = stable
		if m.IdealConstable {
			att.IdealElimPCs = stable
		}
		if m.IdealStableLVP {
			att.IdealLVPPCs = stable
			att.IdealDataFetchElim = m.IdealDataFetchElim
		}
	}
	return att, cons, eves, nil
}

// Speedup returns the relative performance of res over base at equal work
// (same instruction count): base cycles / res cycles.
func Speedup(base, res *RunResult) float64 {
	if res.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(res.Cycles)
}
