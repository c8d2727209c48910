package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// traceShare is the part of the run length a traced run spends on an
// end-to-end phase of its own before the ladder: the served side of
// bench.trace_vs_e2e_ratio, and the child's stats frame behind
// serve.rejected, serve.cancelled and serve.pages_read_per_op.
const traceShare = 2

// runWorkload sets one workload up, checks its answers, times it, and
// returns every metric it produced.
func runWorkload(cfg *config, w workload) (*report, error) {
	rep := &report{Workload: w.name, Trace: cfg.trace, Metrics: map[string]float64{}, Samples: map[string]int{}}
	r, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer r.close()

	m := newModel(r.d.base)
	if w.mixed {
		for _, e := range r.d.stagedIns {
			m.insert(e)
		}
		for _, e := range r.d.stagedDel {
			m.delete(e.ID)
		}
	}
	if err := r.verify(m); err != nil {
		return nil, fmt.Errorf("before timing: %w", err)
	}

	phase := cfg.phase
	if cfg.trace {
		phase /= traceShare
	}
	res, err := r.timedPhase(phase)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = res.attempted, res.failed
	for _, wr := range r.d.writes[:res.writes] {
		m.apply(wr)
	}

	clientMetrics(rep, w, res, m.live)
	if !cfg.trace {
		rep.defs = append(append(append([]metricDef(nil), endToEnd...), clientSide...), health...)
		rep.set("setup_s", r.setup.Seconds())
		if w.mixed {
			rep.defs = append(rep.defs, mixedOnly...)
			rebuild, err := r.crashAndRebuild(cfg, m)
			if err != nil {
				return nil, err
			}
			rep.set("rebuild_s", rebuild.Seconds())
		}
		return rep, nil
	}

	// Traced: the server is done; replay the ladder in process.
	r.srv.kill()
	t := ladderOps(w, cfg.phase)
	// Room for every operation's span at every rung, so that no timed
	// replay pays for growing the slice.
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 5*t)}
	dir := r.clean
	if w.mixed {
		dir = r.staged
	}
	l, err := r.runLadder(cfg, tr, dir, t)
	if err != nil {
		return nil, err
	}
	if err := l.probeDelta(r.clean, r.staged); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.repoRoot, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	rep.Attempted += len(l.ops)
	rep.defs = perLayer
	perLayerMetrics(rep, w, l, res)
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// clientMetrics turns a timed phase into what the client observed.
// Every percentile is nearest-rank over all the phase's samples of its
// kind; the sample count is kept beside it.
func clientMetrics(rep *report, w workload, res *phaseResult, live int) {
	var lat, ttfr [numOpKinds][]int64
	var writes, late []int64
	reads := 0 // answered correctly before the phase closed
	for _, s := range res.samples {
		if s.kind.isWrite() {
			writes, late = append(writes, s.lat), append(late, s.late)
			continue
		}
		lat[s.kind], ttfr[s.kind] = append(lat[s.kind], s.lat), append(ttfr[s.kind], s.ttfr)
		if !s.failed && s.end <= int64(res.phase) {
			reads++
		}
	}
	quantile := func(name string, v []int64, p float64) {
		rep.set(name, float64(percentile(sortedCopy(v), p))/1e3)
		rep.Samples[name] = len(v)
	}
	rep.set("qps", float64(reads)/res.phase.Seconds())
	quantile("p50_us", lat[w.kind], 0.50)
	quantile("p99_us", lat[w.kind], 0.99)
	quantile("ttfr_p50_us", ttfr[w.kind], 0.50)
	rep.set("server_cpu_us_per_op", us(res.serverCPU)/float64(len(res.samples)))
	rep.set("server_rss_mb", float64(res.peakRSS)/(1<<20))
	rep.set("disk_bytes_per_element", float64(res.diskBytes)/float64(live))
	rep.set("bench.client_cpu_share", 100*float64(res.clientCPU)/float64(res.clientCPU+res.serverCPU))
	rep.set("serve.rejected", float64(res.stats.Counters.Rejected))
	if !w.mixed {
		return
	}
	quantile("nn_p50_us", lat[opNN], 0.50)
	quantile("nn_p99_us", lat[opNN], 0.99)
	quantile("write_p50_us", writes, 0.50)
	quantile("write_p99_us", writes, 0.99)
	rep.set("bench.writer_late_p99_us", float64(percentile(sortedCopy(late), 0.99))/1e3)
}

// perLayerMetrics names what the ladder and the probes measured, beside
// what clientMetrics took from the traced run's end-to-end phase.
func perLayerMetrics(rep *report, w workload, l *ladder, lite *phaseResult) {
	t := float64(len(l.ops))
	perOp := func(d time.Duration) float64 { return us(d) / t }
	coreOps := float64(l.core.ops[opRange] + l.core.ops[opCount])
	serveT, flatT, shardT, coreT := l.serve.total(), l.flat.total(), l.shard.total(), l.core.total()

	// Self times: each rung minus the rung below, per operation of the
	// whole sequence. They sum to the serve rung's mean.
	rep.set("serve.self_us_per_op", perOp(serveT-flatT))
	rep.set("serve.self_ns_per_result", float64((serveT-flatT).Nanoseconds())/float64(max(l.serve.results, 1)))
	rep.set("flat.self_us_per_op", perOp(flatT-shardT))
	rep.set("shard.self_us_per_op", perOp(shardT-coreT))
	rep.set("core.self_us_per_op", perOp(coreT-l.leaf.poolBusy-l.leaf.codecBusy))
	rep.set("storage.pool_us_per_op", perOp(l.leaf.poolBusy))
	rep.set("storage.codec_us_per_op", perOp(l.leaf.codecBusy))

	allocs := func(hi, lo *rung) float64 { return (float64(hi.mallocs) - float64(lo.mallocs)) / t }
	none := &rung{}
	rep.set("serve.allocs_per_op", allocs(l.serve, l.flat))
	rep.set("serve.alloc_bytes_per_op", (float64(l.serve.bytes)-float64(l.flat.bytes))/t)
	rep.set("flat.allocs_per_op", allocs(l.flat, l.shard))
	rep.set("shard.allocs_per_op", allocs(l.shard, l.core))
	rep.set("core.allocs_per_op", allocs(l.core, none))

	rep.set("shard.shards_opened_per_op", float64(l.shardsOpened)/coreOps)
	rep.set("shard.delta_staged", float64(l.deltaStaged))
	rep.set("core.pages_touched_per_op", float64(len(l.pageIDs))/coreOps)
	rep.set("core.object_pages_per_op", float64(l.objectPages)/coreOps)
	rep.set("core.records_visited_per_op", float64(l.recordsVisited)/coreOps)
	rep.set("core.cold_reads_per_op", float64(l.coldReads)/float64(l.coldOps))
	rep.set("core.elements_examined_per_result", float64(l.leaf.examined)/float64(max(l.core.results, 1)))

	rep.set("storage.pool_hit_ns", l.leaf.poolHitNs)
	rep.set("storage.pool_miss_mmap_ns", l.leaf.poolMissMmapNs)
	rep.set("storage.pool_miss_file_ns", l.leaf.poolMissFileNs)
	rep.set("storage.codec_v2_ns_per_element", l.leaf.codecV2Ns)
	rep.set("storage.codec_v1_ns_per_element", l.leaf.codecV1Ns)
	rep.set("storage.wal_append_us", l.leaf.walAppendUs)
	rep.set("storage.wal_sync_us", l.leaf.walSyncUs)
	rep.set("storage.wal_bytes_per_write", l.leaf.walBytes)
	rep.set("rtree.delta_insert_us", l.leaf.insertUs)
	rep.set("rtree.delta_probe_us", l.leaf.probeUs)
	rep.set("rtree.delta_nn_us", l.leaf.nnUs)
	rep.set("shard.nn_us_per_op", l.leaf.shardNNUs)
	rep.set("shard.stage_us_per_write", l.leaf.stageUs)
	rep.set("shard.open_ms", l.leaf.openMs)
	rep.set("shard.open_replay_ms", l.leaf.openReplayMs)

	// From the short end-to-end phase against the real child process.
	c := lite.stats.Counters
	rep.set("serve.cancelled", float64(c.Cancelled))
	rep.set("serve.pages_read_per_op", float64(c.PagesRead)/float64(max(c.RangeQueries+c.CountQueries+c.NNQueries, 1)))
	var e2e []int64
	for _, s := range lite.samples {
		if s.kind == w.kind {
			e2e = append(e2e, s.lat)
		}
	}
	rungMean := float64(l.serve.busy[w.kind].Nanoseconds()) / float64(l.serve.ops[w.kind])
	rep.set("bench.trace_vs_e2e_ratio", rungMean/mean(e2e))
}
