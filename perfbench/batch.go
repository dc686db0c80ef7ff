package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/report"
	"tivapromi/internal/sim"
)

// batchWorkload is one `experiments` invocation run in-process: the named
// sections as one merged campaign, rendered with the CLI's separator
// discipline and compared byte for byte with a golden file.
type batchWorkload struct {
	ev         campaign.Eval
	sections   []string
	golden     string // path relative to the checkout root
	checkpoint bool   // arm a fresh single-file checkpoint, as -checkpoint does
}

// evalAll is `experiments all` at its default flags (short: the smoke
// scale `-seeds 1 -windows 1 -trials 2`).
func evalAll(short bool) batchWorkload {
	ev := campaign.DefaultEval()
	golden := "experiments_output.txt"
	if short {
		ev.SeedsPerPoint, ev.Base.Windows, ev.Trials = 1, 1, 2
		golden = "perfbench/golden/eval-all-short.txt"
	}
	var names []string
	for _, d := range report.Sections() {
		names = append(names, d.Name)
	}
	return batchWorkload{ev: ev, sections: names, golden: golden, checkpoint: true}
}

// paperTable3 is `experiments -paper -windows 1 -seeds 6 table3` (short:
// `-seeds 1`): Table III at the paper's Table I scale, no checkpoint.
func paperTable3(short bool) batchWorkload {
	ev := campaign.DefaultEval()
	ev.Base.Params = dram.PaperParams()
	ev.Base.Windows = 1
	ev.SeedsPerPoint = 6
	golden := "perfbench/golden/paper-table3.txt"
	if short {
		ev.SeedsPerPoint = 1
		golden = "perfbench/golden/paper-table3-short.txt"
	}
	return batchWorkload{ev: ev, sections: []string{"table3"}, golden: golden}
}

// plan expands the sections into the merged campaign, exactly as the CLI
// does before it starts running cells.
func (w batchWorkload) plan() (campaign.Spec, []report.SectionDef) {
	var specs []campaign.Spec
	var defs []report.SectionDef
	for _, name := range w.sections {
		def, _ := report.Section(name)
		defs = append(defs, def)
		specs = append(specs, def.Spec(w.ev))
	}
	return campaign.Merge("evaluation", specs...), defs
}

// iteration is one timed campaign.
type iteration struct {
	wall    time.Duration // campaign start → last rendered byte
	cpu     time.Duration // process CPU time over plan + wall
	allocMB float64       // heap allocated over plan + wall
	total   time.Duration // plan + wall
	render  time.Duration
	out     []byte
}

// iterate plans, runs and renders the workload once. ckPath, when the
// workload arms a checkpoint, must not exist yet. fs (nil = the real
// filesystem) is the checkpoint's I/O seam; l (nil = untraced) records
// the per-layer ledger.
func (w batchWorkload) iterate(ctx context.Context, workers int, ckPath string, fs *countingFS, l *ledger) (iteration, error) {
	t0 := time.Now()
	spec, defs := w.plan()
	runner := sim.NewRunner()
	runner.Config.Workers = workers
	if w.checkpoint {
		var err error
		if fs != nil {
			runner.Checkpoint, err = sim.LoadCheckpointFS(ckPath, fs)
		} else {
			runner.Checkpoint, err = sim.LoadCheckpoint(ckPath)
		}
		if err != nil {
			return iteration{}, err
		}
	}
	opts := campaign.Options{Workers: workers, Runner: runner}
	start := time.Now()
	var rs *campaign.ResultSet
	var err error
	if l != nil {
		rs, err = l.run(ctx, spec, opts)
	} else {
		rs, err = campaign.Run(ctx, spec, opts)
	}
	if err != nil {
		return iteration{}, err
	}
	if err := rs.Err(); err != nil {
		return iteration{}, err
	}
	// Render with the CLI's discipline: every section followed by a blank
	// line, each section's bytes stored in the checkpoint when armed.
	renderStart := time.Now()
	var out bytes.Buffer
	rc := &report.Context{Eval: w.ev, Results: rs}
	for i, def := range defs {
		var sec bytes.Buffer
		if err := def.Render(&sec, rc); err != nil {
			return iteration{}, fmt.Errorf("render %s: %w", def.Name, err)
		}
		out.Write(sec.Bytes())
		if runner.Checkpoint != nil {
			if err := runner.Checkpoint.PutOutput(def.Name, sec.String()); err != nil {
				return iteration{}, err
			}
		}
		if len(defs) > 1 || i < len(defs)-1 {
			out.WriteByte('\n')
		}
	}
	end := time.Now()
	return iteration{wall: end.Sub(start), total: end.Sub(t0), render: end.Sub(renderStart), out: out.Bytes()}, nil
}

// runBatch measures a batch workload for the given time: repeated
// iterations, each checked against the golden bytes.
func runBatch(ctx context.Context, w batchWorkload, o options) (*result, error) {
	res := newResult()
	workers := o.workers

	// Set-up: read the golden, plan the campaign, warm the simulator with
	// one seed of the first sweep, prepare the work directory. Repeated so
	// the median is steady.
	var golden []byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		golden, err = os.ReadFile(filepath.Join(o.root, w.golden))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		spec, _ := w.plan()
		for _, c := range spec.Cells {
			if c.IsSweep() {
				cfg := c.Config
				cfg.Seed = c.Seeds[0]
				if _, err := sim.RunCtx(ctx, cfg, c.Technique); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
				break
			}
		}
		if err := os.RemoveAll(o.work); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.work, 0o755); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC() // the heap samples belong to the workload, not to set-up's garbage

	deadline := time.Duration(o.seconds) * time.Second
	var iters []iteration
	heap := startHeapSampler(o.trace == 1)
	began := time.Now()
	for n := 0; ; n++ {
		ckPath := filepath.Join(o.work, fmt.Sprintf("ck-%d", n), "checkpoint.json")
		if err := os.MkdirAll(filepath.Dir(ckPath), 0o755); err != nil {
			return nil, err
		}
		cpu0, alloc0 := cpuTime(), allocatedMB()
		it, err := w.iterate(ctx, workers, ckPath, nil, nil)
		if err != nil {
			return nil, err
		}
		it.cpu, it.allocMB = cpuTime()-cpu0, allocatedMB()-alloc0
		res.Attempted++
		if !bytes.Equal(it.out, golden) {
			res.fail(fmt.Sprintf("iteration %d: output differs from %s (%s)", n, w.golden, firstDiff(it.out, golden)))
		}
		iters = append(iters, it)
		// Start another iteration only if it is expected to finish in time.
		if elapsed := time.Since(began); o.short || elapsed+it.total > deadline {
			break
		}
	}
	heapUse := heap.stop()

	n := len(iters)
	walls, totals, cpus, allocs := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var busy time.Duration
	for i, it := range iters {
		walls[i] = it.wall.Seconds()
		totals[i] = float64(it.total) / float64(time.Millisecond)
		cpus[i] = float64(it.cpu) / float64(time.Millisecond)
		allocs[i] = it.allocMB
		busy += it.total
	}
	repTail, repP := tailPercentile(totals, 90)
	res.note("iterations=%d workers=%d report tail p%d; walls %.4v s; CPU %.5v ms", len(iters), workers, repP, walls, cpus)

	if o.trace == 0 {
		res.set("setup_s", median(setups), "s")
		res.set("alloc_mb_per_job", median(allocs), "MB")
		return res, nil
	}

	// Traced run: one more iteration with the ledger and the counting FS.
	ckDir := filepath.Join(o.work, "ck-traced")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return nil, err
	}
	l := &ledger{}
	fs := newCountingFS(ckDir, "")
	// The untraced iterations ran beside the heap sampler; so does this
	// one, so that the overhead compares tracing alone.
	sampler := startHeapSampler(true)
	it, err := w.iterate(ctx, workers, filepath.Join(ckDir, "checkpoint.json"), fs, l)
	sampler.stop()
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if !bytes.Equal(it.out, golden) {
		res.fail(fmt.Sprintf("traced iteration: output differs from %s (%s)", w.golden, firstDiff(it.out, golden)))
	}
	ck, _ := fs.snapshot()
	ly, err := l.report(ctx, workers, it.wall, it.render, ck)
	if err != nil {
		return nil, err
	}
	ly.overheadPct = 100 * (it.wall.Seconds()/median(walls) - 1)
	ly.heapLiveP99, ly.peakHeapMB = heapUse.liveP99, heapUse.peak
	ly.wallS, ly.cpuMsPerJob = median(walls), median(cpus)
	ly.reportP50, ly.reportP90 = median(totals), repTail
	ly.jobsPerS = float64(len(iters)) / busy.Seconds()
	ly.emit(res)
	return res, nil
}
