package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func shortOptions(t *testing.T, workload string, trace int) options {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 1, seconds: 1, trace: trace, short: true,
		root: root, work: t.TempDir(), workers: 2, rate: serveRate}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that the outputs pass the correctness gate and that exactly the
// metrics BENCHMARK.json declares are reported.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, wl := range []string{"paper-table3", "serve-mixed", "eval-all"} {
		if wl == "eval-all" && testing.Short() {
			t.Log("skipping eval-all (about 30 s) in -short mode")
			continue
		}
		for trace, want := range [][]string{endToEnd, perLayer} {
			res, err := run(context.Background(), shortOptions(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d, failed %d: %v", wl, trace, res.Attempted, res.Failed, res.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", wl, trace, name)
				}
			}
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := schedule(7, 20, serveRate), schedule(7, 20, serveRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 20, serveRate)) {
		t.Fatal("different seeds gave the same schedule")
	}
	popular := map[string]bool{}
	for _, body := range popularRequests {
		popular[body] = true
	}
	seen := map[string]bool{}
	fresh := 0
	mix := map[string]int{}
	for _, arr := range schedule(8, 20, serveRate) {
		if !arr.fresh {
			mix[arr.body]++
		}
	}
	for i, arr := range a {
		if i > 0 && arr.at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if !arr.fresh {
			if !popular[arr.body] {
				t.Errorf("non-fresh arrival %s is not a popular variant", arr.body)
			}
			mix[arr.body]--
			continue
		}
		fresh++
		if popular[arr.body] || seen[arr.body] {
			t.Errorf("fresh arrival %s was seen before", arr.body)
		}
		seen[arr.body] = true
	}
	if n := int(20 * serveRate); len(a) != n || fresh != n/freshEvery {
		t.Errorf("got %d arrivals with %d fresh, want %d with %d", len(a), fresh, n, n/freshEvery)
	}
	for body, d := range mix {
		if d != 0 {
			t.Errorf("seeds 7 and 8 sent %s a different number of times (difference %d)", body, d)
		}
	}
	if got := popularMix(48); len(got) != 48 || got[0] != popularRequests[0] || got[len(got)-1] != popularRequests[len(popularRequests)-1] {
		t.Errorf("popularMix(48) = %d requests from %q to %q", len(got), got[0], got[len(got)-1])
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, wantP int
		wantV    float64
	}{
		{n: 100, wantP: 90, wantV: 90.1},
		{n: 99, wantP: 89, wantV: 88.22},
		{n: 200, wantP: 90, wantV: 180.1},
		{n: 20, wantP: 50, wantV: 10.5},
		{n: 5, wantP: 100, wantV: 5},
	} {
		v, p := tailPercentile(seq(tc.n), 90)
		if p != tc.wantP || v < tc.wantV-1e-9 || v > tc.wantV+1e-9 {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
	}
}

// TestGateRejectsAlteredByte flips one byte of a golden and requires the
// batch gate and the serving gate to count the run as failed.
func TestGateRejectsAlteredByte(t *testing.T) {
	o := shortOptions(t, "paper-table3", 0)
	w := paperTable3(true)
	raw, err := os.ReadFile(filepath.Join(o.root, w.golden))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	o.root = t.TempDir()
	path := filepath.Join(o.root, w.golden)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runBatch(context.Background(), w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("batch gate: attempted %d, failed %d; want 1 and 1", res.Attempted, res.Failed)
	}

	body := popularRequests[0]
	want := []byte("report\n")
	got := append([]byte(nil), want...)
	got[2] ^= 1
	env := &serveEnv{goldens: map[string]golden{body: {text: want}}}
	res = newResult()
	p := servePass{outs: []outcome{{a: arrival{body: body}, body: want}, {a: arrival{body: body}, body: got}}}
	if _, err := env.verify(context.Background(), p, 2, res); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("serving gate: attempted %d, failed %d; want 2 and 1", res.Attempted, res.Failed)
	}
}
