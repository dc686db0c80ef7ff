package sim

import (
	"context"
	"runtime"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
)

// drainRowPool empties the row-table pool: a sync.Pool item survives
// one collection in the victim cache, never two.
func drainRowPool() {
	runtime.GC()
	runtime.GC()
}

// allocDuring returns the bytes fn allocates.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunRecyclesRowState is the recycling bound: a paper-scale CRA run
// (16 lanes of 128K rows: 8 MB of sparse disturbance pages and 8 MB of
// CRA counters) hands its row tables back when it ends, so an identical
// second run allocates under an eighth of what the first, cold-pool run
// did.
func TestRunRecyclesRowState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := DefaultConfig()
	cfg.Params = dram.PaperParams()
	cfg.Windows = 1
	ctx := context.Background()
	var first, second Result
	var err error
	drainRowPool()
	cold := allocDuring(func() { first, err = RunCtx(ctx, cfg, "CRA") })
	if err != nil {
		t.Fatal(err)
	}
	warm := allocDuring(func() { second, err = RunCtx(ctx, cfg, "CRA") })
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("recycled run diverged\n got: %+v\nwant: %+v", second, first)
	}
	t.Logf("cold run %.1f MB, warm run %.1f MB", float64(cold)/1e6, float64(warm)/1e6)
	if warm*8 >= cold {
		t.Fatalf("warm run allocated %d B, want under 1/8 of the cold run's %d B", warm, cold)
	}
}

// pollCtx counts its Err polls — the run drivers poll once per block —
// and reports Canceled once limit polls have passed (limit < 0: never),
// so a run can be stopped partway with its tables dirty.
type pollCtx struct {
	context.Context
	polls, limit int
}

func (c *pollCtx) Err() error {
	if c.limit >= 0 && c.polls >= c.limit {
		return context.Canceled
	}
	c.polls++
	return nil
}

// TestRecycledStateMatchesFresh: a run on recycled tables must be
// indistinguishable from one on fresh tables. Every case first runs on
// a drained pool; then the cases run again, interleaved, each right
// after another case was cancelled a quarter, half or three quarters of
// the way through — a complete run ends with every row refreshed and
// every window-scoped counter cleared, a cut one leaves live counts in
// the tables it hands back. Dense rows, sparse pages and CRA counters of
// the shrunken geometry are all 4096 entries long, so they trade tables
// with each other.
func TestRecycledStateMatchesFresh(t *testing.T) {
	sparse := func(c *Config) { c.Params.State = dram.StateSparse }
	cases := []struct {
		name      string
		technique string
		mutate    func(*Config)
		run       func(context.Context, Config, string) (Result, error)
	}{
		{name: "dense-CRA", technique: "CRA"},
		{name: "sparse-CRA", technique: "CRA", mutate: sparse},
		{name: "sparse-LiPRoMi", technique: "LiPRoMi", mutate: sparse},
		{name: "dense-CaPRoMi-random-policy", technique: "CaPRoMi",
			mutate: func(c *Config) { c.Policy = PolicyRandom }},
		{name: "dense-CRA-SEU-plan", technique: "CRA",
			mutate: func(c *Config) { c.Fault = faults.Plan{Model: faults.StateSEU, Rate: 0.0005, Seed: 11} }},
		{name: "sparse-CRA-sharded", technique: "CRA", mutate: sparse,
			run: func(ctx context.Context, c Config, tech string) (Result, error) {
				return RunShardedCtx(ctx, c, tech, 2)
			}},
		{name: "scaled-dense-LoPRoMi", technique: "LoPRoMi",
			mutate: func(c *Config) { c.Params = dram.ScaledParams(); c.Windows = 1 }},
		{name: "unprotected-reference", technique: "", mutate: sparse, run: RunReferenceCtx},
	}
	cfgs := make([]Config, len(cases))
	want := make([]Result, len(cases))
	polls := make([]int, len(cases))
	for i := range cases {
		tc := &cases[i]
		cfgs[i] = shrunkenConfig()
		if tc.mutate != nil {
			tc.mutate(&cfgs[i])
		}
		if tc.run == nil {
			tc.run = RunCtx
		}
		drainRowPool()
		ctx := &pollCtx{Context: context.Background(), limit: -1}
		res, err := tc.run(ctx, cfgs[i], tc.technique)
		if err != nil {
			t.Fatalf("%s cold: %v", tc.name, err)
		}
		want[i], polls[i] = res, ctx.polls
	}
	for round := 0; round < 3; round++ {
		for k := range cases {
			i := (k*3 + round) % len(cases)
			j := (i + 1) % len(cases)
			cut := &pollCtx{Context: context.Background(), limit: polls[j] * (round + 1) / 4}
			if _, err := cases[j].run(cut, cfgs[j], cases[j].technique); err != context.Canceled {
				t.Fatalf("round %d: cancelled %s returned %v", round, cases[j].name, err)
			}
			got, err := cases[i].run(context.Background(), cfgs[i], cases[i].technique)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cases[i].name, err)
			}
			if got != want[i] {
				t.Errorf("round %d %s (after a cut %s): recycled run diverged\n got: %+v\nwant: %+v",
					round, cases[i].name, cases[j].name, got, want[i])
			}
		}
	}
}
