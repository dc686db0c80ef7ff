package main

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/hotpath"
	"tivapromi/internal/iofault"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/sim"
)

// The ledger attributes a traced run's time to the repository's layers.
// Every number is taken from outside the program: the benchmark wraps
// the public entry points a campaign calls (sim.RunCtx for sweep seeds,
// the exported Cell.Run closures of probe cells) and the iofault.FS seam
// the checkpoint and the job journal write through. Nothing inside the
// program is changed or counted.

// interval is one busy span of a simulation slot.
type interval struct{ start, end time.Time }

// sweepRun is one timed sim.RunCtx call.
type sweepRun struct {
	cfg   sim.Config
	tech  string
	acts  uint64
	iv    interval
	alive bool // the run returned a Result
}

// ledger collects the timings of one traced campaign (or, on the serving
// path, of every campaign the server runs during the traced window).
type ledger struct {
	mu       sync.Mutex
	sweeps   []sweepRun
	sched    time.Duration // latency probes (memctrl.Scheduler)
	probe    time.Duration // every other probe cell
	busy     []interval    // every gate-held simulation, sweep or probe
	cells    int
	cached   int
	runStart time.Time // first campaign.Run call
	runEnd   time.Time // last campaign.Run return
}

// instrument returns copies of spec and opts whose probe cells and sweep
// seeds report their busy time to l. The cell keys are unchanged, so
// checkpoint memoization and rendering see the same campaign.
func (l *ledger) instrument(spec campaign.Spec, opts campaign.Options) (campaign.Spec, campaign.Options) {
	out := campaign.Spec{Name: spec.Name, Cells: make([]campaign.Cell, len(spec.Cells))}
	for i, c := range spec.Cells {
		if !c.IsSweep() {
			run, sched := c.Run, strings.HasPrefix(c.Key, "latency/")
			c.Run = func(ctx context.Context, v any) error {
				t0 := time.Now()
				err := run(ctx, v)
				l.addProbe(sched, interval{t0, time.Now()})
				return err
			}
		}
		out.Cells[i] = c
	}
	runner := sim.NewRunner()
	if opts.Runner != nil {
		r := *opts.Runner
		runner = &r
	}
	runner.Config.SetRunFnForTest(func(ctx context.Context, cfg sim.Config, tech string) (sim.Result, error) {
		t0 := time.Now()
		res, err := sim.RunCtx(ctx, cfg, tech)
		l.addSweep(sweepRun{cfg: cfg, tech: tech, acts: res.TotalActs,
			iv: interval{t0, time.Now()}, alive: err == nil})
		return res, err
	})
	opts.Runner = runner
	return out, opts
}

func (l *ledger) addProbe(sched bool, iv interval) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sched {
		l.sched += iv.end.Sub(iv.start)
	} else {
		l.probe += iv.end.Sub(iv.start)
	}
	l.busy = append(l.busy, iv)
}

func (l *ledger) addSweep(r sweepRun) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweeps = append(l.sweeps, r)
	l.busy = append(l.busy, r.iv)
}

// run executes spec through campaign.Run with instrumentation, counting
// cells and cached cells from the returned ResultSet.
func (l *ledger) run(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
	ispec, iopts := l.instrument(spec, opts)
	t0 := time.Now()
	rs, err := campaign.Run(ctx, ispec, iopts)
	t1 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.runStart.IsZero() || t0.Before(l.runStart) {
		l.runStart = t0
	}
	if t1.After(l.runEnd) {
		l.runEnd = t1
	}
	if rs != nil {
		for _, k := range rs.Keys() {
			l.cells++
			if cr := rs.Get(k); cr != nil && cr.Cached {
				l.cached++
			}
		}
	}
	return rs, err
}

// busyTime sums every simulation slot's busy time.
func (l *ledger) busyTime() time.Duration {
	var d time.Duration
	for _, iv := range l.busy {
		d += iv.end.Sub(iv.start)
	}
	return d
}

// underfilled returns how long, within [from, to], fewer than workers
// simulations were running — the campaign's idle tail and admission gaps.
func (l *ledger) underfilled(from, to time.Time, workers int) time.Duration {
	type edge struct {
		t     time.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(l.busy))
	for _, iv := range l.busy {
		edges = append(edges, edge{iv.start, +1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t.Equal(edges[j].t) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].t.Before(edges[j].t)
	})
	var under time.Duration
	running, prev := 0, from
	for _, e := range edges {
		t := e.t
		if t.Before(from) {
			t = from
		}
		if t.After(to) {
			t = to
		}
		if running < workers {
			under += t.Sub(prev)
		}
		prev = t
		running += e.delta
	}
	if running < workers && to.After(prev) {
		under += to.Sub(prev)
	}
	return under
}

// genProfile times trace generation alone (sim.DrainStream) for one seed
// of every distinct sweep configuration the ledger saw, and scales the
// per-access cost to every run of that configuration. It returns the
// estimated generation seconds and total accesses across all runs.
func (l *ledger) genProfile(ctx context.Context) (genS float64, accesses uint64, err error) {
	type sample struct {
		nsPerAccess float64
		accesses    uint64
	}
	byCfg := map[string]*sample{}
	for _, r := range l.sweeps {
		if !r.alive {
			continue
		}
		// Generation cost per access does not depend on the seed, so one
		// seed stands for every run of a configuration.
		keyCfg := r.cfg
		keyCfg.Seed = 0
		key := sim.Fingerprint(keyCfg, "", nil)
		s := byCfg[key]
		if s == nil {
			t0 := time.Now()
			n, err := sim.DrainStream(ctx, r.cfg)
			if err != nil {
				return 0, 0, err
			}
			s = &sample{nsPerAccess: float64(time.Since(t0).Nanoseconds()) / float64(n), accesses: n}
			byCfg[key] = s
		}
		genS += s.nsPerAccess * float64(s.accesses) / 1e9
		accesses += s.accesses
	}
	return genS, accesses, nil
}

// actPathNs times hotpath.DriveActPath for every technique the ledger's
// sweeps ran, on the geometry they ran on, and returns the ns per
// activation weighted by each technique's share of the workload's acts.
func (l *ledger) actPathNs() float64 {
	const n = 1 << 18
	type tech struct {
		cfg  sim.Config
		name string
		acts uint64
	}
	techs := map[string]*tech{}
	for _, r := range l.sweeps {
		if !r.alive || r.tech == "" {
			continue
		}
		key := r.tech + "\x00" + r.cfg.FactoryLabel + "\x00" + sim.GeometryString(r.cfg.Params)
		t := techs[key]
		if t == nil {
			t = &tech{cfg: r.cfg, name: r.tech}
			techs[key] = t
		}
		t.acts += r.acts
	}
	var weighted, acts float64
	for _, t := range techs {
		factory := t.cfg.Factory
		if factory == nil {
			f, err := mitigation.Lookup(t.name)
			if err != nil {
				continue
			}
			factory = f
		}
		target := t.cfg.Target()
		m := factory(target, 1)
		// Warm the tables and scratch buffer before timing.
		_, scratch := hotpath.DriveActPath(m, target, n/4, nil)
		t0 := time.Now()
		hotpath.DriveActPath(m, target, n, scratch)
		ns := float64(time.Since(t0).Nanoseconds()) / n
		weighted += ns * float64(t.acts)
		acts += float64(t.acts)
	}
	if acts == 0 {
		return 0
	}
	return weighted / acts
}

// ioClass is one durable file's write traffic.
type ioClass struct {
	flushes int             // temp-file rewrites renamed over the target
	bytes   int64           // bytes written
	syncs   int             // fsyncs
	syncDur []time.Duration // per-fsync time
	ioDur   time.Duration   // write + fsync + close + rename time
}

// countingFS is an iofault.FS that counts and times the writes of the
// checkpoint (files created in ckDir) and of the job journal (appends to
// journalPath) separately, passing every call through to the real
// filesystem.
type countingFS struct {
	inner       iofault.FS
	ckDir       string
	journalPath string

	mu      sync.Mutex
	ck      ioClass
	journal ioClass
}

func newCountingFS(ckDir, journalPath string) *countingFS {
	return &countingFS{inner: iofault.OS{}, ckDir: filepath.Clean(ckDir), journalPath: filepath.Clean(journalPath)}
}

func (c *countingFS) class(path string) *ioClass {
	switch {
	case c.journalPath != "." && filepath.Clean(path) == c.journalPath:
		return &c.journal
	case c.ckDir != "." && filepath.Dir(filepath.Clean(path)) == c.ckDir:
		return &c.ck
	}
	return nil
}

func (c *countingFS) ReadFile(path string) ([]byte, error) { return c.inner.ReadFile(path) }
func (c *countingFS) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }
func (c *countingFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *countingFS) MkdirAll(path string) error           { return c.inner.MkdirAll(path) }

func (c *countingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, cls: c.class(f.Name())}, nil
}

func (c *countingFS) OpenAppend(path string) (iofault.File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, cls: c.class(path)}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	if cls := c.class(newpath); cls != nil && err == nil {
		c.mu.Lock()
		cls.flushes++
		cls.ioDur += time.Since(t0)
		c.mu.Unlock()
	}
	return err
}

// snapshot returns copies of both classes' counters.
func (c *countingFS) snapshot() (ck, journal ioClass) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ck, journal = c.ck, c.journal
	ck.syncDur = append([]time.Duration(nil), c.ck.syncDur...)
	journal.syncDur = append([]time.Duration(nil), c.journal.syncDur...)
	return ck, journal
}

// countingFile times one file's writes and fsyncs into its class.
type countingFile struct {
	iofault.File
	fs  *countingFS
	cls *ioClass
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.record(func(c *ioClass) { c.bytes += int64(n); c.ioDur += time.Since(t0) })
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.record(func(c *ioClass) { c.syncs++; c.syncDur = append(c.syncDur, d); c.ioDur += d })
	return err
}

func (f *countingFile) Close() error {
	t0 := time.Now()
	err := f.File.Close()
	f.record(func(c *ioClass) { c.ioDur += time.Since(t0) })
	return err
}

func (f *countingFile) record(update func(*ioClass)) {
	if f.cls == nil {
		return
	}
	f.fs.mu.Lock()
	update(f.cls)
	f.fs.mu.Unlock()
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// layers is one traced run's per-layer table. Layers a workload does not
// exercise stay zero.
type layers struct {
	genS, nsPerAccess          float64 // workload: trace generation
	laneS, laneNsPerAccess     float64 // memctrl.Lane service (sim.RunCtx minus generation)
	actsPerS                   float64 // sim: activations per busy second of sim.RunCtx
	nsPerAct                   float64 // mitigation act path
	schedS, probeS             float64 // memctrl.Scheduler probes; other probes
	cells, cellsCached         int
	idlePct, tailS             float64 // campaign slot idleness within campaign.Run
	ckFlushes                  int
	ckMB, ckFsyncS, ckIOS      float64
	ackP50, ackP90             float64 // scheduled send → 202
	wallS                      float64 // untraced pass: campaign wall (batch), schedule span (serve)
	cpuMsPerJob                float64 // untraced pass: process CPU time per iteration or request
	reportP50, reportP90       float64 // untraced pass: scheduled send → report read
	jobsPerS                   float64 // untraced pass: completed jobs per second
	decodeMs                   float64 // serve.DecodeRequest + BuildCampaign
	journalFsyncs              int
	journalFsyncP50            float64
	queueWaitP50, queueWaitP90 float64
	jobRunP50                  float64
	queueSharePct              float64 // Σ job-queue-wait ÷ Σ submit→report
	gateSharePct               float64 // Σ (job-run − simulation) ÷ Σ submit→report
	cacheHitPct                float64
	rejected                   int
	renderS                    float64
	sendLagP90                 float64
	busyS, capacityS           float64 // Σ layer busy time; workers × wall
	overheadPct                float64 // traced vs untraced wall
	heapLiveP99                float64 // untraced pass: 99th percentile of the live heap
	peakHeapMB                 float64 // untraced pass: maximum heap sample, garbage included
}

// report folds the ledger, the checkpoint I/O counters, the wall time
// and the render time into the per-layer table, timing generation and
// the act path separately (outside the measured wall).
func (l *ledger) report(ctx context.Context, workers int, wall, render time.Duration, ck ioClass) (layers, error) {
	var ly layers
	genS, accesses, err := l.genProfile(ctx)
	if err != nil {
		return ly, err
	}
	var sweepS, acts float64
	for _, r := range l.sweeps {
		sweepS += r.iv.end.Sub(r.iv.start).Seconds()
		acts += float64(r.acts)
	}
	ly.genS, ly.laneS = genS, sweepS-genS
	if accesses > 0 {
		ly.nsPerAccess = genS * 1e9 / float64(accesses)
		ly.laneNsPerAccess = ly.laneS * 1e9 / float64(accesses)
	}
	if sweepS > 0 {
		ly.actsPerS = acts / sweepS
	}
	ly.nsPerAct = l.actPathNs()
	ly.schedS, ly.probeS = l.sched.Seconds(), l.probe.Seconds()
	ly.cells, ly.cellsCached = l.cells, l.cached
	if span := l.runEnd.Sub(l.runStart); span > 0 {
		ly.idlePct = 100 * (1 - l.busyTime().Seconds()/(float64(workers)*span.Seconds()))
		ly.tailS = l.underfilled(l.runStart, l.runEnd, workers).Seconds()
	}
	ly.ckFlushes = ck.flushes
	ly.ckMB = float64(ck.bytes) / (1 << 20)
	ly.ckFsyncS = sumDur(ck.syncDur).Seconds()
	ly.ckIOS = ck.ioDur.Seconds()
	ly.renderS = render.Seconds()
	ly.busyS = l.busyTime().Seconds() + ly.ckIOS + ly.renderS
	ly.capacityS = float64(workers) * wall.Seconds()
	return ly, nil
}

// emit writes every per-layer metric into res.
func (ly layers) emit(res *result) {
	res.set("workload.gen_s", ly.genS, "s")
	res.set("workload.ns_per_access", ly.nsPerAccess, "ns")
	res.set("memctrl.lane_s", ly.laneS, "s")
	res.set("memctrl.lane_ns_per_access", ly.laneNsPerAccess, "ns")
	res.set("sim.acts_per_s", ly.actsPerS, "1/s")
	res.set("mitigation.ns_per_act", ly.nsPerAct, "ns")
	res.set("memctrl.sched_s", ly.schedS, "s")
	res.set("sim.probe_s", ly.probeS, "s")
	res.set("campaign.cells", float64(ly.cells), "count")
	res.set("campaign.cells_cached", float64(ly.cellsCached), "count")
	res.set("campaign.idle_pct", ly.idlePct, "%")
	res.set("campaign.tail_s", ly.tailS, "s")
	res.set("checkpoint.flushes", float64(ly.ckFlushes), "count")
	res.set("checkpoint.bytes_written_mb", ly.ckMB, "MB")
	res.set("checkpoint.fsync_s", ly.ckFsyncS, "s")
	res.set("submit_ack_p50_ms", ly.ackP50, "ms")
	res.set("submit_ack_p90_ms", ly.ackP90, "ms")
	res.set("wall_s", ly.wallS, "s")
	res.set("cpu_ms_per_job", ly.cpuMsPerJob, "ms")
	res.set("submit_to_report_p50_ms", ly.reportP50, "ms")
	res.set("submit_to_report_p90_ms", ly.reportP90, "ms")
	res.set("jobs_per_s", ly.jobsPerS, "1/s")
	res.set("serve.decode_ms", ly.decodeMs, "ms")
	res.set("journal.fsyncs", float64(ly.journalFsyncs), "count")
	res.set("journal.fsync_ms_p50", ly.journalFsyncP50, "ms")
	res.set("serve.queue_wait_ms_p50", ly.queueWaitP50, "ms")
	res.set("serve.queue_wait_ms_p90", ly.queueWaitP90, "ms")
	res.set("serve.job_run_ms_p50", ly.jobRunP50, "ms")
	res.set("serve.queue_wait_share_pct", ly.queueSharePct, "%")
	res.set("serve.gate_wait_share_pct", ly.gateSharePct, "%")
	res.set("serve.cache_hit_pct", ly.cacheHitPct, "%")
	res.set("serve.rejected", float64(ly.rejected), "count")
	res.set("report.render_s", ly.renderS, "s")
	res.set("bench.send_lag_ms_p90", ly.sendLagP90, "ms")
	res.set("ledger.busy_s", ly.busyS, "s")
	res.set("ledger.capacity_s", ly.capacityS, "s")
	residual := 0.0
	if ly.capacityS > 0 {
		residual = 100 * (ly.capacityS - ly.busyS) / ly.capacityS
	}
	res.set("ledger.residual_pct", residual, "%")
	res.set("bench.trace_overhead_pct", ly.overheadPct, "%")
	res.set("heap_live_p99_mb", ly.heapLiveP99, "MB")
	res.set("peak_heap_mb", ly.peakHeapMB, "MB")
	res.set("failed_pct", res.failedPct(), "%")
}
