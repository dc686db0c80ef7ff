package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/obs"
	"tivapromi/internal/serve"
	"tivapromi/internal/sim"
)

// The serve-mixed load: an open loop of seeded Poisson arrivals from more
// tenants than workers. Most requests are popular section variants that
// the shared cache already holds; one arrival in every freshEvery is a
// variant no tenant has asked for yet, so fresh simulation work keeps
// arriving at a steady share throughout the run instead of only during
// warm-up.
const (
	serveTenants = 4
	serveRate    = 4.0 // default offered requests per second; see README.md for the rate sweep
	freshEvery   = 5   // one never-seen variant per block of this many arrivals
	// serveQueueDepth is each tenant's pending-job bound (the CLI's
	// -queue-depth; its default is 8). The host's speed can drop to a
	// third for minutes, and at depth 8 such a drop turned bursts into
	// 429s at 10/s; at 32 it shows as latency instead.
	serveQueueDepth = 32
)

// serveWorkers is the server's simulation pool for nproc CPUs: one CPU is
// left to the HTTP front end, the journal and the load generator, which
// share the process, so acknowledgements do not wait for a simulation to
// be preempted.
func serveWorkers(nproc int) int { return max(1, nproc-1) }

// popularRequests are the repeated variants, most popular first; the
// server's cache is warmed with them during set-up.
var popularRequests = []string{
	`{"sections":["table2"]}`,
	`{"sections":["flooding"],"trials":10}`,
	`{"sections":["table1"],"windows":1}`,
	`{"sections":["fig4"],"seeds":1,"windows":1}`,
	`{"sections":["thresholds"]}`,
	`{"sections":["table1","flooding"],"windows":1,"trials":10}`,
	`{"sections":["refreshpolicies"],"seeds":1,"windows":1}`,
	`{"sections":["aggressors"],"seeds":1,"windows":1}`,
}

// freshRequests returns the catalog of never-seen variants: Flooding with
// 11–100 trials and Table I with 2–40 windows, each 45–400 ms of fresh
// work on one worker of the reference host (see README.md). The order is shuffled once with a fixed seed and a
// run takes a prefix, so the fresh work of any run is a sample of the
// catalog whose cost does not depend on the offered rate, and every seed
// at one rate serves the same fresh work in a different order.
func freshRequests() []string {
	var out []string
	for t := 11; t <= 100; t++ {
		out = append(out, fmt.Sprintf(`{"sections":["flooding"],"trials":%d}`, t))
	}
	for w := 2; w <= 40; w++ {
		out = append(out, fmt.Sprintf(`{"sections":["table1"],"windows":%d}`, w))
	}
	r := rand.New(rand.NewPCG(1, 1))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// arrival is one scheduled submission.
type arrival struct {
	at     time.Duration // offset from the schedule start
	tenant string
	body   string
	fresh  bool
}

// schedule builds the seeded arrival list for a run of the given length
// at the given offered rate: rate×seconds arrival times drawn uniformly
// and sorted (a Poisson process conditioned on its count, so every seed
// offers the same load); every freshEvery-th arrival, from a seeded
// phase, carries the next fresh variant (the catalog's prefix in seeded
// order), so fresh work never bunches up; the others carry the popular
// variants of popularMix in seeded order; tenants are drawn uniformly.
func schedule(seed uint64, seconds, rate float64) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x7469766170726f6d))
	n := int(math.Round(rate * seconds))
	times := make([]float64, n)
	for i := range times {
		times[i] = r.Float64() * seconds
	}
	sort.Float64s(times)

	fresh := freshRequests()
	fresh = fresh[:min(n/freshEvery, len(fresh))]
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	isFresh := make([]bool, n)
	phase := r.IntN(freshEvery)
	for b := range fresh {
		isFresh[b*freshEvery+phase] = true
	}

	popular := popularMix(n - len(fresh))
	r.Shuffle(len(popular), func(i, j int) { popular[i], popular[j] = popular[j], popular[i] })
	out := make([]arrival, n)
	nextFresh, nextPopular := 0, 0
	for i := range out {
		a := arrival{
			at:     time.Duration(times[i] * float64(time.Second)),
			tenant: fmt.Sprintf("tenant-%d", r.IntN(serveTenants)),
		}
		if isFresh[i] {
			a.body, a.fresh = fresh[nextFresh], true
			nextFresh++
		} else {
			a.body = popular[nextPopular]
			nextPopular++
		}
		out[i] = a
	}
	return out
}

// popularMix returns m popular requests in Zipf proportions (the k-th most
// popular variant weighted 1/k), counts rounded by largest remainder, in
// catalog order. Every seed thus serves the same multiset of cached work,
// and only its order differs.
func popularMix(m int) []string {
	total := 0.0
	for k := range popularRequests {
		total += 1 / float64(k+1)
	}
	counts := make([]int, len(popularRequests))
	rem := make([]float64, len(popularRequests))
	left := m
	for k := range counts {
		share := float64(m) / float64(k+1) / total
		counts[k] = int(share)
		rem[k] = share - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, len(counts))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return rem[order[i]] > rem[order[j]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	var out []string
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, popularRequests[k])
		}
	}
	return out
}

// golden is a request's in-process report and the time serve.RenderReport
// took to produce it.
type golden struct {
	text   []byte
	render time.Duration
}

// renderInProcess computes a request's report without the server: decode,
// expand, run the campaign (optionally on a checkpoint) and render.
func renderInProcess(ctx context.Context, body string, workers int, ck *sim.Checkpoint) (golden, error) {
	req, err := serve.DecodeRequest([]byte(body), serve.Limits{})
	if err != nil {
		return golden{}, err
	}
	spec, ev, err := serve.BuildCampaign(req, campaign.DefaultEval(), serve.Limits{})
	if err != nil {
		return golden{}, err
	}
	runner := sim.NewRunner()
	runner.Config.Workers = workers
	runner.Checkpoint = ck
	rs, err := campaign.Run(ctx, spec, campaign.Options{Workers: workers, Runner: runner})
	if err != nil {
		return golden{}, err
	}
	if err := rs.Err(); err != nil {
		return golden{}, err
	}
	t0 := time.Now()
	text, _, err := serve.RenderReport(ev, rs, req.Sections)
	return golden{text, time.Since(t0)}, err
}

// doneWatcher turns the server's log narration into completion events:
// the server logs "serve: <tenant>: job <id> <state>" right after a job
// settles, so a client waiting on it learns of completion without
// polling.
type doneWatcher struct {
	mu    sync.Mutex
	chans map[string]chan string
}

func (w *doneWatcher) ch(id string) chan string {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.chans[id]
	if c == nil {
		c = make(chan string, 1)
		w.chans[id] = c
	}
	return c
}

func (w *doneWatcher) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "serve:" && f[2] == "job" && serve.JobState(f[4]).Terminal() {
			select {
			case w.ch(f[3]) <- f[4]:
			default:
			}
		}
	}
	return len(p), nil
}

// serveEnv is one started server with its client.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	watch   *doneWatcher
	fs      *countingFS
	goldens map[string]golden
}

// startServe sets up one serving environment in dir: warms a fresh shared
// cache with the popular variants (their in-process renders are the
// goldens), opens the journal, starts the server on a loopback listener
// and opens the client's connections.
func startServe(ctx context.Context, dir string, workers int, traced bool) (*serveEnv, error) {
	ckDir, jDir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	for _, d := range []string{ckDir, jDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	ckPath, jPath := filepath.Join(ckDir, "cache.json"), filepath.Join(jDir, "journal.jsonl")
	warm, err := sim.LoadCheckpoint(ckPath)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{goldens: map[string]golden{}, watch: &doneWatcher{chans: map[string]chan string{}}}
	for _, body := range popularRequests {
		g, err := renderInProcess(ctx, body, workers, warm)
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", body, err)
		}
		env.goldens[body] = g
	}
	if err := warm.Flush(); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Workers:        serveWorkers(workers),
		QueueDepth:     serveQueueDepth,
		CheckpointPath: ckPath,
		JournalPath:    jPath,
		Log:            env.watch,
	}
	if traced {
		env.fs = newCountingFS(ckDir, jPath)
		cfg.FS = env.fs
	}
	env.srv, err = serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Close()
		return nil, err
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	// Open the client's connections before timing starts.
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := env.get("default", "/healthz"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		env.stop()
		return nil, err
	}
	return env, nil
}

// stop drains and closes the server, shuts the listener and waits for it.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e.srv.Drain(ctx)
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
}

func (e *serveEnv) get(tenant, path string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	return e.do(req)
}

func (e *serveEnv) do(req *http.Request) ([]byte, int, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// outcome is one arrival's measured life.
type outcome struct {
	a        arrival
	lag      time.Duration // how late the generator sent it
	ack      time.Duration // due → 202
	report   time.Duration // due → report body read
	finished time.Time
	body     []byte
	err      string // non-empty: rejected, failed or unreadable
	rejected bool
}

// drive sends the schedule in an open loop and waits for every report.
func (e *serveEnv) drive(ctx context.Context, sched []arrival) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			out[i] = e.one(ctx, a, due)
		}(i, a, due)
	}
	wg.Wait()
	return out
}

func (e *serveEnv) one(ctx context.Context, a arrival, due time.Time) outcome {
	o := outcome{a: a, lag: time.Since(due)}
	req, err := http.NewRequest(http.MethodPost, e.base+"/v1/campaigns", strings.NewReader(a.body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	req.Header.Set("X-Tenant", a.tenant)
	body, code, err := e.do(req)
	o.ack = time.Since(due)
	switch {
	case err != nil:
		o.err = err.Error()
		return o
	case code != http.StatusAccepted:
		o.err, o.rejected = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(body)), true
		return o
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		o.err = err.Error()
		return o
	}
	select {
	case state := <-e.watch.ch(st.ID):
		if state != string(serve.StateDone) {
			o.err = "job " + state
			return o
		}
	case <-ctx.Done():
		o.err = "no completion before the run's deadline"
		return o
	}
	rep, code, err := e.get(a.tenant, "/v1/campaigns/"+st.ID+"/report")
	o.report, o.finished = time.Since(due), time.Now()
	if err != nil || code != http.StatusOK {
		o.err = fmt.Sprintf("report: HTTP %d %v", code, err)
		return o
	}
	o.body = rep
	return o
}

// spanDurations reads the durations (ms) of the named spans from the
// tracer's Chrome trace-event JSON.
func spanDurations(t *obs.Tracer, name string) ([]float64, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	var ms []float64
	for _, ev := range doc.TraceEvents {
		if ev.Name == name && ev.Ph == "X" {
			ms = append(ms, ev.Dur/1000)
		}
	}
	return ms, nil
}

// servePass is one measured pass over the schedule.
type servePass struct {
	outs  []outcome
	wall  time.Duration // first due → last report read
	cpu   time.Duration // process CPU time over the pass: server, client and generator
	alloc float64       // MiB allocated on the heap over the pass
	heap  heapUse
	cache sim.CacheStats
}

// pass drives the schedule once; sampleHeap polls the heap meanwhile.
func (e *serveEnv) pass(sched []arrival, limit time.Duration, sampleHeap bool) servePass {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	runtime.GC() // the heap samples belong to the pass, not to set-up's garbage
	heap := startHeapSampler(sampleHeap)
	cpu0, alloc0 := cpuTime(), allocatedMB()
	start := time.Now()
	outs := e.drive(ctx, sched)
	p := servePass{outs: outs, cpu: cpuTime() - cpu0, alloc: allocatedMB() - alloc0, heap: heap.stop(), cache: e.srv.CacheStats()}
	last := start
	for _, o := range outs {
		if o.finished.After(last) {
			last = o.finished
		}
	}
	p.wall = last.Sub(start)
	return p
}

// verify checks every served report against an in-process render of the
// same request, counting failures into res, and returns the summed
// serve.RenderReport time of the served reports.
func (e *serveEnv) verify(ctx context.Context, p servePass, workers int, res *result) (renderS float64, err error) {
	for _, o := range p.outs {
		res.Attempted++
		if o.err != "" {
			res.fail(fmt.Sprintf("%s %s: %s", o.a.tenant, o.a.body, o.err))
			continue
		}
		want, ok := e.goldens[o.a.body]
		if !ok {
			if want, err = renderInProcess(ctx, o.a.body, workers, nil); err != nil {
				return 0, err
			}
			e.goldens[o.a.body] = want
		}
		if !bytes.Equal(o.body, want.text) {
			res.fail(fmt.Sprintf("%s %s: report differs from the in-process render (%s)", o.a.tenant, o.a.body, firstDiff(o.body, want.text)))
		}
		renderS += want.render.Seconds()
	}
	return renderS, nil
}

func runServe(ctx context.Context, o options) (*result, error) {
	res := newResult()
	seconds := float64(o.seconds)
	if o.short {
		seconds = 3
	}
	sched := schedule(o.seed, seconds, o.rate)
	limit := time.Duration(seconds)*time.Second + 60*time.Second

	// Set-up, repeated: a fresh cache warmed with the popular variants, a
	// fresh journal, a started server and open client connections. The
	// last environment serves the untraced pass.
	var env *serveEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.stop()
		}
		t0 := time.Now()
		var err error
		env, err = startServe(ctx, filepath.Join(o.work, fmt.Sprintf("setup-%d", i)), o.workers, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := env.pass(sched, limit, o.trace == 1)
	env.stop()
	if _, err := env.verify(ctx, p, o.workers, res); err != nil {
		return nil, err
	}

	var acks, reps []float64
	nFresh := 0
	for _, oc := range p.outs {
		if oc.a.fresh {
			nFresh++
		}
		if oc.err == "" {
			acks = append(acks, float64(oc.ack)/float64(time.Millisecond))
			reps = append(reps, float64(oc.report)/float64(time.Millisecond))
		}
	}
	ackTail, ackP := tailPercentile(acks, 90)
	repTail, repP := tailPercentile(reps, 90)
	rejected := 0
	for _, oc := range p.outs {
		if oc.rejected {
			rejected++
		}
	}
	res.note("arrivals=%d completed=%d rejected=%d tenants=%d server workers=%d connections=%d offered=%.1f/s fresh=%d (%.0f%%) ack tail p%d report tail p%d",
		len(sched), len(reps), rejected, serveTenants, serveWorkers(o.workers), o.workers, o.rate, nFresh, 100*float64(nFresh)/float64(len(sched)), ackP, repP)
	jobs := float64(max(1, len(reps)))
	cpuPerJob, allocPerJob := float64(p.cpu)/float64(time.Millisecond)/jobs, p.alloc/jobs
	res.note("untraced: wall %.2f s, jobs_per_s %.3f, submit→report p90 %.1f ms, CPU %.3f s (%.2f ms per job)",
		p.wall.Seconds(), float64(len(reps))/p.wall.Seconds(), repTail, p.cpu.Seconds(), cpuPerJob)
	res.note("shared cache: %d hits, %d misses (%.1f%% hit)", p.cache.Hits(), p.cache.SweepMisses+p.cache.ProbeMisses, hitPct(p.cache))
	var lags []float64
	for _, oc := range p.outs {
		lags = append(lags, float64(oc.lag)/float64(time.Millisecond))
	}
	res.note("submit→202: p75=%.2f p90=%.2f p95=%.2f max=%.2f ms; send lag p50=%.2f p90=%.2f max=%.2f ms",
		quantile(acks, .75), quantile(acks, .9), quantile(acks, .95), quantile(acks, 1), median(lags), quantile(lags, .9), quantile(lags, 1))
	for _, fresh := range []bool{false, true} {
		var ms []float64
		for _, oc := range p.outs {
			if oc.err == "" && oc.a.fresh == fresh {
				ms = append(ms, float64(oc.report)/float64(time.Millisecond))
			}
		}
		res.note("submit→report, fresh=%v: n=%d p25=%.1f p50=%.1f p75=%.1f p90=%.1f max=%.1f ms",
			fresh, len(ms), quantile(ms, .25), median(ms), quantile(ms, .75), quantile(ms, .9), quantile(ms, 1))
	}

	if o.trace == 0 {
		res.set("setup_s", median(setups), "s")
		res.set("alloc_mb_per_job", allocPerJob, "MB")
		return res, nil
	}

	// Traced pass: the same schedule on a fresh environment with spans on,
	// the counting FS under cache and journal, and every campaign the
	// server runs wrapped by the ledger.
	tracer := obs.NewTracer()
	obs.SetTracer(tracer)
	defer obs.SetTracer(nil)
	tenv, err := startServe(ctx, filepath.Join(o.work, "traced"), o.workers, true)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	tenv.srv.SetRunCampaignForTest(l.run)
	tp := tenv.pass(sched, limit, true) // sampled like the untraced pass, so the overhead compares tracing alone
	tenv.stop()
	obs.SetTracer(nil)
	renderS, err := tenv.verify(ctx, tp, o.workers, res)
	if err != nil {
		return nil, err
	}
	ck, journal := tenv.fs.snapshot()
	ly, err := l.report(ctx, serveWorkers(o.workers), tp.wall, 0, ck)
	if err != nil {
		return nil, err
	}
	ly.renderS = renderS
	ly.busyS += renderS + journal.ioDur.Seconds()
	// The pass lasts as long as its schedule whatever tracing costs, so
	// the overhead is read from latency: the fastest quarter of the cached
	// requests, which did not queue behind other work and so measure the
	// traced path itself rather than the load.
	var treps []float64
	for _, oc := range tp.outs {
		if oc.err == "" {
			treps = append(treps, float64(oc.report)/float64(time.Millisecond))
		}
	}
	ly.overheadPct = 100 * (quantile(cachedReports(tp), .25)/quantile(cachedReports(p), .25) - 1)
	ly.wallS, ly.cpuMsPerJob = p.wall.Seconds(), cpuPerJob
	ly.reportP50, ly.reportP90 = median(reps), repTail
	ly.jobsPerS = float64(len(reps)) / p.wall.Seconds()
	ly.heapLiveP99, ly.peakHeapMB = p.heap.liveP99, p.heap.peak
	ly.ackP50, ly.ackP90 = median(acks), ackTail
	ly.journalFsyncs = journal.syncs
	ly.journalFsyncP50 = median(durMs(journal.syncDur))
	ly.cacheHitPct = hitPct(tp.cache)
	var decode []time.Duration
	for _, a := range sched {
		t0 := time.Now()
		req, err := serve.DecodeRequest([]byte(a.body), serve.Limits{})
		if err == nil {
			_, _, err = serve.BuildCampaign(req, campaign.DefaultEval(), serve.Limits{})
		}
		decode = append(decode, time.Since(t0))
		if err != nil {
			return nil, err
		}
	}
	ly.decodeMs = median(durMs(decode))
	wait, err := spanDurations(tracer, "job-queue-wait")
	if err != nil {
		return nil, err
	}
	runs, err := spanDurations(tracer, "job-run")
	if err != nil {
		return nil, err
	}
	ly.queueWaitP50, ly.queueWaitP90 = median(wait), quantile(wait, 0.9)
	ly.jobRunP50 = median(runs)
	// Where the traced requests' time went: waiting behind the tenant's
	// active job, and running but not simulating (waiting for the shared
	// gate, cache reads and writes, render).
	if total := sum(treps); total > 0 {
		ly.queueSharePct = 100 * sum(wait) / total
		ly.gateSharePct = 100 * (sum(runs) - 1000*l.busyTime().Seconds()) / total
	}
	res.note("traced: Σ submit→report %.0f ms = queue wait %.1f%% + job run not simulating %.1f%% + rest",
		sum(treps), ly.queueSharePct, ly.gateSharePct)
	var tlags []float64
	for _, oc := range tp.outs {
		if oc.rejected {
			ly.rejected++
		}
		tlags = append(tlags, float64(oc.lag)/float64(time.Millisecond))
	}
	ly.sendLagP90, _ = tailPercentile(tlags, 90)
	ly.emit(res)
	return res, nil
}

// cachedReports returns the submit→report times (ms) of the pass's
// completed requests for popular variants.
func cachedReports(p servePass) []float64 {
	var ms []float64
	for _, oc := range p.outs {
		if oc.err == "" && !oc.a.fresh {
			ms = append(ms, float64(oc.report)/float64(time.Millisecond))
		}
	}
	return ms
}

func hitPct(s sim.CacheStats) float64 {
	total := s.Hits() + s.SweepMisses + s.ProbeMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Hits()) / float64(total)
}
