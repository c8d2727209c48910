package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/neuro"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// Config scopes the reproduction. The defaults reproduce every figure at
// 1/1000 of the paper's element counts (VolumeSide, the query fractions
// and NodeCapacity below say why the figures survive the scaling);
// raising Densities toward the paper's numbers only costs time.
type Config struct {
	// Densities is the sweep of element counts placed in the fixed
	// tissue volume. The paper uses 50–450 million; the default is
	// 50k–450k, preserving the ×9 density sweep.
	Densities []int `json:"densities"`
	// VolumeSide is the edge of the cubic tissue volume in µm. The
	// default (28.5) shrinks the paper's 285 µm cube by the same 10x per
	// axis (1000x by volume) as the 1000x element-count reduction, so
	// *density* — elements per µm³, the variable every figure sweeps —
	// matches the paper exactly at every point of the sweep. Without
	// this, R-tree overlap (the effect under study) would disappear at
	// reproduction scale.
	VolumeSide float64 `json:"volume_side"`
	// Queries per micro-benchmark (paper: 200).
	Queries int `json:"queries"`
	// SNFraction and LSSFraction are the query volumes as fractions of
	// the data-set volume. The paper's values are 5e-9 (5×10⁻⁷ %) and
	// 5e-6 (5×10⁻⁴ %); the defaults are 1000x larger (5e-6 and 5e-3)
	// because the tissue volume is 1000x smaller — the two scalings
	// cancel so the *absolute* query box sizes (0.116 µm³ and 116 µm³)
	// and therefore per-query result sizes match the paper exactly.
	SNFraction  float64 `json:"sn_fraction"`
	LSSFraction float64 `json:"lss_fraction"`
	// SegmentsPerNeuron controls morphology size (paper: ~4500).
	SegmentsPerNeuron int `json:"segments_per_neuron"`
	// NodeCapacity is the per-node entry count for every index (R-tree
	// leaves and internals, FLAT object pages and seed fanout). The paper
	// uses full 4 KiB pages (85 entries) on 50–450M elements, giving
	// trees of height 4–5; the default here (16) yields the same tree
	// heights at 50k–450k elements, preserving the multi-level overlap
	// behaviour the paper measures. Set to 0 for full pages.
	NodeCapacity int `json:"node_capacity"`
	// OtherScale scales the Section VIII data-set sizes (paper: 12.4M to
	// 252M elements). Default 1/200.
	OtherScale float64 `json:"other_scale"`
	// Shards is the K sweep of the sharded-index experiment. Default
	// {1, 2, 4, 8}; K=1 is also the parity check against the unsharded
	// index.
	Shards []int `json:"shards"`
	// Seed drives every generator.
	Seed int64 `json:"seed"`
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config {
	return Config{
		Densities:         []int{50000, 100000, 150000, 200000, 250000, 300000, 350000, 400000, 450000},
		VolumeSide:        28.5,
		NodeCapacity:      16,
		Queries:           200,
		SNFraction:        5e-6,
		LSSFraction:       5e-3,
		SegmentsPerNeuron: 1500,
		OtherScale:        1.0 / 200,
		Shards:            []int{1, 2, 4, 8},
		Seed:              1,
	}
}

// QuickConfig returns a trimmed configuration for smoke tests and the Go
// benchmark suite: three densities, fewer queries, and the Section VIII
// data sets cut by the same factor of five as the top density and the
// query count (12k–252k elements instead of 62k–1.26M).
func QuickConfig() Config {
	c := DefaultConfig()
	c.Densities = []int{30000, 60000, 90000}
	c.Queries = 40
	c.OtherScale = 1.0 / 1000
	return c
}

// Runner executes experiments, caching the expensive shared artifacts
// (generated models, built index sets, use-case measurement runs) across
// figures so `flatbench -fig all` does each unit of work once.
type Runner struct {
	Cfg    Config
	Log    io.Writer // optional progress log
	models map[int]*neuro.Model
	sets   map[int]*indexSet
	useCx  map[string][]useCaseRow
	others []*otherSet
}

// NewRunner returns a Runner over cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:    cfg,
		models: make(map[int]*neuro.Model),
		sets:   make(map[int]*indexSet),
		useCx:  make(map[string][]useCaseRow),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// model returns (and caches) the brain model at the given density.
func (r *Runner) model(n int) *neuro.Model {
	if m, ok := r.models[n]; ok {
		return m
	}
	r.logf("generating brain model: %d elements", n)
	side := r.Cfg.VolumeSide
	if side == 0 {
		side = 28.5
	}
	m := neuro.Generate(neuro.Config{
		Seed:              r.Cfg.Seed,
		Volume:            geom.Box(geom.V(0, 0, 0), geom.V(side, side, side)),
		TargetElements:    n,
		SegmentsPerNeuron: r.Cfg.SegmentsPerNeuron,
	})
	r.models[n] = m
	return m
}

// indexSet bundles the four indexes built over one data set (each on a
// pool of its own, reached through the index) with their build times.
type indexSet struct {
	world geom.MBR

	flat      *core.Index
	trees     map[rtree.Strategy]*rtree.Tree
	buildTime map[string]time.Duration
}

// strategies in the paper's presentation order.
var strategies = []rtree.Strategy{rtree.Hilbert, rtree.STR, rtree.PR}

// buildSet builds FLAT and the three R-trees over els, all with the
// given node capacity (0 = full pages).
func buildSet(els []geom.Element, world geom.MBR, capacity int, logf func(string, ...any)) (*indexSet, error) {
	s := &indexSet{
		world:     world,
		trees:     make(map[rtree.Strategy]*rtree.Tree),
		buildTime: make(map[string]time.Duration),
	}
	for _, strat := range strategies {
		cp := make([]geom.Element, len(els))
		copy(cp, els)
		t0 := time.Now()
		tree, err := rtree.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, strat, world, rtree.Config{
			LeafCapacity:     capacity,
			InternalCapacity: capacity,
		})
		if err != nil {
			return nil, fmt.Errorf("build %v: %w", strat, err)
		}
		s.buildTime[strat.String()] = time.Since(t0)
		s.trees[strat] = tree
		logf("  built %-14s in %v", strat, s.buildTime[strat.String()].Round(time.Millisecond))
	}
	cp := make([]geom.Element, len(els))
	copy(cp, els)
	ix, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp,
		core.Options{World: world, PageCapacity: capacity, SeedFanout: capacity})
	if err != nil {
		return nil, fmt.Errorf("build FLAT: %w", err)
	}
	s.flat = ix
	s.buildTime["FLAT"] = ix.BuildStats().TotalTime
	logf("  built %-14s in %v", "FLAT", ix.BuildStats().TotalTime.Round(time.Millisecond))
	return s, nil
}

// set returns (and caches) the index set for the brain model at density n.
func (r *Runner) set(n int) (*indexSet, error) {
	if s, ok := r.sets[n]; ok {
		return s, nil
	}
	m := r.model(n)
	r.logf("building indexes at density %d", n)
	s, err := buildSet(m.Elements, m.Volume, r.Cfg.NodeCapacity, r.logf)
	if err != nil {
		return nil, err
	}
	r.sets[n] = s
	return s, nil
}

// measurement accumulates one benchmark run over one index.
type measurement struct {
	Stats   storage.Stats // cumulative cold page reads
	Elapsed time.Duration
	Results uint64
}

// PerResult returns page reads per result element.
func (m measurement) PerResult() float64 {
	if m.Results == 0 {
		return 0
	}
	return float64(m.Stats.TotalReads()) / float64(m.Results)
}

// coldRun replays queries cold per query (every frame of pool dropped
// first), as the paper's methodology prescribes; count answers one
// query through pool and returns its result size and the page reads it
// caused, which the measurement sums.
func coldRun(pool storage.Pool, queries []geom.MBR, count func(geom.MBR) (int, storage.Stats, error)) (measurement, error) {
	var m measurement
	t0 := time.Now()
	for _, q := range queries {
		pool.DropFrames()
		n, reads, err := count(q)
		if err != nil {
			return m, err
		}
		m.Results += uint64(n)
		m.Stats.Add(reads)
	}
	m.Elapsed = time.Since(t0)
	return m, nil
}

// coldFLAT is coldRun over a FLAT index: the QueryStats every query
// returns, restated by page category.
func coldFLAT(ix *core.Index, queries []geom.MBR) (measurement, error) {
	return coldRun(ix.Pool(), queries, func(q geom.MBR) (int, storage.Stats, error) {
		n, st, err := ix.CountQuery(q)
		var reads storage.Stats
		reads.Reads[storage.CatSeedInternal] = st.SeedReads
		reads.Reads[storage.CatMetadata] = st.MetadataReads
		reads.Reads[storage.CatObject] = st.ObjectReads
		return n, reads, err
	})
}

// coldTree is coldRun over a baseline R-tree, each query on its own
// Tally view.
func coldTree(tree *rtree.Tree, queries []geom.MBR) (measurement, error) {
	return coldRun(tree.Pool(), queries, func(q geom.MBR) (int, storage.Stats, error) {
		var reads storage.Stats
		n, err := tree.Tally(&reads).CountQuery(q)
		return n, reads, err
	})
}

// useCaseRow is one density's measurements for one micro-benchmark.
type useCaseRow struct {
	Density int
	FLAT    measurement
	RTrees  map[rtree.Strategy]measurement
}

// useCase replays the SN or LSS micro-benchmark (per fraction) across
// the density sweep, on all four indexes. Results are cached per
// fraction so figures 12–19 share one run.
func (r *Runner) useCase(fraction float64) ([]useCaseRow, error) {
	key := fmt.Sprintf("%g", fraction)
	if rows, ok := r.useCx[key]; ok {
		return rows, nil
	}
	var rows []useCaseRow
	for _, n := range r.Cfg.Densities {
		s, err := r.set(n)
		if err != nil {
			return nil, err
		}
		queries := datagen.Queries(datagen.QuerySpec{
			Count:          r.Cfg.Queries,
			World:          s.world,
			VolumeFraction: fraction,
			Seed:           r.Cfg.Seed + 100,
		})
		row := useCaseRow{Density: n, RTrees: make(map[rtree.Strategy]measurement)}
		row.FLAT, err = coldFLAT(s.flat, queries)
		if err != nil {
			return nil, err
		}
		for _, strat := range strategies {
			row.RTrees[strat], err = coldTree(s.trees[strat], queries)
			if err != nil {
				return nil, err
			}
		}
		r.logf("  density %d: fraction %g done (FLAT %d reads, PR %d reads)",
			n, fraction, row.FLAT.Stats.TotalReads(), row.RTrees[rtree.PR].Stats.TotalReads())
		rows = append(rows, row)
	}
	r.useCx[key] = rows
	return rows, nil
}

// Experiments returns the registry of experiment ids in run order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id ("fig2" ... "fig23") and returns its
// tables.
func (r *Runner) Run(id string) ([]*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, Experiments())
	}
	return fn(r)
}

// registry maps experiment ids to implementations (defined across the
// figure files).
var registry = map[string]func(*Runner) ([]*Table, error){
	"fig2":     (*Runner).fig2,
	"fig3":     (*Runner).fig3,
	"fig4":     (*Runner).fig4,
	"fig10":    (*Runner).fig10,
	"fig11":    (*Runner).fig11,
	"fig12":    sweepFigure("fig12"),
	"fig13":    sweepFigure("fig13"),
	"fig14":    (*Runner).fig14,
	"fig15":    sweepFigure("fig15"),
	"fig16":    sweepFigure("fig16"),
	"fig17":    sweepFigure("fig17"),
	"fig18":    (*Runner).fig18,
	"fig19":    sweepFigure("fig19"),
	"fig20":    (*Runner).fig20,
	"fig21":    (*Runner).fig21,
	"fig22":    (*Runner).fig22,
	"ablation": (*Runner).ablation,
	"fig23":    (*Runner).fig23,
	// Beyond the paper; each has a committed BENCH_<id>.json baseline.
	"shards":    (*Runner).shardsExperiment,
	"pagecodec": (*Runner).pagecodec,
	"nn":        (*Runner).nnExperiment,
	"staging":   (*Runner).staging,
}
