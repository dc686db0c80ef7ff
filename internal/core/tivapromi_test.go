package core

import (
	"testing"

	"tivapromi/internal/mitigation"
)

func testConfig() Config {
	// 16384 rows over 1024 intervals: 16 rows per interval, like DDR4.
	return DefaultConfig(16384, 1024)
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.RefInt = 1000 // not a power of two
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two RefInt accepted")
	}
	bad = testConfig()
	bad.HistoryEntries = 0
	if bad.Validate() == nil {
		t.Fatal("zero history entries accepted")
	}
	bad = testConfig()
	bad.RowsPerBank = 16385
	if bad.Validate() == nil {
		t.Fatal("rows not multiple of RefInt accepted")
	}
}

func TestPaperStorageNumbers(t *testing.T) {
	// Paper: 32-entry history table = 120 B per 1 GB bank
	// (17 row bits + 13 interval bits = 30 bits * 32 = 120 B).
	cfg := DefaultConfig(131072, 8192)
	if cfg.RowBits != 17 {
		t.Fatalf("RowBits = %d, want 17", cfg.RowBits)
	}
	if got := cfg.HistoryBytes(); got != 120 {
		t.Fatalf("HistoryBytes = %d, want 120", got)
	}
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		LiPRoMi: "LiPRoMi", LoPRoMi: "LoPRoMi", LoLiPRoMi: "LoLiPRoMi",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%v != %s", v, want)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(LiPRoMi, 0, testConfig(), 1); err == nil {
		t.Fatal("zero banks accepted")
	}
	bad := testConfig()
	bad.RefInt = 3
	if _, err := New(LiPRoMi, 1, bad, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestEffectiveWeightUsesNominalRefreshSlot(t *testing.T) {
	m := MustNew(LiPRoMi, 1, testConfig(), 1)
	// Row 160 with 16 rows/interval has fr = 10.
	if w := m.EffectiveWeight(0, 160, 10); w != 0 {
		t.Fatalf("weight at own refresh slot = %d, want 0", w)
	}
	if w := m.EffectiveWeight(0, 160, 110); w != 100 {
		t.Fatalf("weight 100 intervals later = %d", w)
	}
	// Wrap: interval 5 is before fr=10, so the refresh was last window.
	if w := m.EffectiveWeight(0, 160, 5); w != 5-10+1024 {
		t.Fatalf("wrapped weight = %d, want %d", w, 5-10+1024)
	}
}

func TestEffectiveWeightVariants(t *testing.T) {
	cfg := testConfig()
	li := MustNew(LiPRoMi, 1, cfg, 1)
	lo := MustNew(LoPRoMi, 1, cfg, 1)
	loli := MustNew(LoLiPRoMi, 1, cfg, 1)
	// Row 0, interval 20: linear weight 20, log weight 32.
	if w := li.EffectiveWeight(0, 0, 20); w != 20 {
		t.Fatalf("LiPRoMi weight = %d", w)
	}
	if w := lo.EffectiveWeight(0, 0, 20); w != 32 {
		t.Fatalf("LoPRoMi weight = %d", w)
	}
	// LoLiPRoMi without a table hit behaves logarithmically.
	if w := loli.EffectiveWeight(0, 0, 20); w != 32 {
		t.Fatalf("LoLiPRoMi weight (no hit) = %d", w)
	}
	// With a history entry at interval 18, LoLiPRoMi switches to linear.
	loli.Table(0).Record(0, 18)
	if w := loli.EffectiveWeight(0, 0, 20); w != 2 {
		t.Fatalf("LoLiPRoMi weight (hit) = %d, want 2", w)
	}
	// LoPRoMi with the same entry stays logarithmic but from the newer
	// reference: LogWeight(2) = 4.
	lo.Table(0).Record(0, 18)
	if w := lo.EffectiveWeight(0, 0, 20); w != 4 {
		t.Fatalf("LoPRoMi weight (hit) = %d, want 4", w)
	}
}

func TestTriggerRecordsHistoryAndEmitsActN(t *testing.T) {
	m := MustNew(LiPRoMi, 1, testConfig(), 7)
	// Hammer one row at a late interval (high weight) until it triggers.
	var cmds []mitigation.Command
	interval := 1000 // row 0 has fr=0, so weight 1000 of 1024
	for i := 0; i < 100000 && len(cmds) == 0; i++ {
		cmds = m.OnActivate(0, 0, interval, cmds)
	}
	if len(cmds) == 0 {
		t.Fatal("no trigger in 100k high-weight activations")
	}
	if cmds[0].Kind != mitigation.ActN || cmds[0].Row != 0 {
		t.Fatalf("unexpected command %+v", cmds[0])
	}
	if iv, ok := m.Table(0).Lookup(0); !ok || iv != interval {
		t.Fatalf("history table not updated: %d,%v", iv, ok)
	}
	// After the trigger the effective weight collapses to 0.
	if w := m.EffectiveWeight(0, 0, interval); w != 0 {
		t.Fatalf("post-trigger weight = %d, want 0", w)
	}
}

func TestZeroWeightNeverTriggers(t *testing.T) {
	m := MustNew(LiPRoMi, 1, testConfig(), 3)
	var cmds []mitigation.Command
	for i := 0; i < 200000; i++ {
		cmds = m.OnActivate(0, 0, 0, cmds) // fr(0)=0, weight 0
	}
	if len(cmds) != 0 {
		t.Fatalf("LiPRoMi triggered %d times at weight 0", len(cmds))
	}
}

func TestLoPRoMiTriggersAtZeroLinearWeight(t *testing.T) {
	// LogWeight(0) = 1 keeps a minimal escape probability — a structural
	// difference from LiPRoMi that closes the flooding window.
	m := MustNew(LoPRoMi, 1, testConfig(), 3)
	var cmds []mitigation.Command
	for i := 0; i < 40_000_000 && len(cmds) == 0; i++ {
		cmds = m.OnActivate(0, 0, 0, cmds)
	}
	if len(cmds) == 0 {
		t.Fatal("LoPRoMi never triggered at minimal weight (p = 2^-20)")
	}
}

func TestOnNewWindowClearsTables(t *testing.T) {
	m := MustNew(LoLiPRoMi, 2, testConfig(), 5)
	m.Table(0).Record(10, 5)
	m.Table(1).Record(20, 6)
	m.OnNewWindow()
	if m.Table(0).Occupancy() != 0 || m.Table(1).Occupancy() != 0 {
		t.Fatal("window change did not clear tables")
	}
}

func TestResetReproducesDecisions(t *testing.T) {
	run := func(m *TiVaPRoMi) []mitigation.Command {
		var cmds []mitigation.Command
		for i := 0; i < 50000; i++ {
			cmds = m.OnActivate(0, 512, 900, cmds)
		}
		return cmds
	}
	m := MustNew(LiPRoMi, 1, testConfig(), 42)
	a := run(m)
	m.Reset()
	b := run(m)
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d triggers", len(a), len(b))
	}
}

func TestPerBankIsolation(t *testing.T) {
	m := MustNew(LiPRoMi, 2, testConfig(), 9)
	var cmds []mitigation.Command
	for i := 0; i < 200000 && len(cmds) == 0; i++ {
		cmds = m.OnActivate(1, 64, 1000, cmds)
	}
	if len(cmds) == 0 {
		t.Fatal("setup: no trigger")
	}
	if m.Table(0).Occupancy() != 0 {
		t.Fatal("bank 0 table polluted by bank 1 activity")
	}
	if m.Table(1).Occupancy() != 1 {
		t.Fatal("bank 1 table missing its entry")
	}
}

func TestTriggerRateMatchesWeight(t *testing.T) {
	// At weight w the trigger rate must be ≈ w * Pbase. Use the paper's
	// structure: RefInt=1024 → Pbase = 2^-20.
	m := MustNew(LiPRoMi, 1, testConfig(), 11)
	const interval = 512 // row 0: weight 512, p = 512 * 2^-20 = 2^-11
	const n = 2 << 20
	trig := 0
	var cmds []mitigation.Command
	for i := 0; i < n; i++ {
		cmds = m.OnActivate(0, 0, interval, cmds[:0])
		if len(cmds) > 0 {
			trig++
			// Remove the history entry so the weight stays 512.
			m.Table(0).Clear()
		}
	}
	want := float64(n) / 2048
	if float64(trig) < want*0.8 || float64(trig) > want*1.2 {
		t.Fatalf("trigger count %d, want ≈%.0f", trig, want)
	}
}

func TestCycleModelMatchesTableII(t *testing.T) {
	// Table II: act cycles Li=37, Lo=37, LoLi=36; ref cycles 3 for all.
	cfg := DefaultConfig(131072, 8192) // 32-entry history table
	for _, tc := range []struct {
		v   Variant
		act int
		ref int
	}{
		{LiPRoMi, 37, 3},
		{LoPRoMi, 37, 3},
		{LoLiPRoMi, 36, 3},
	} {
		m := MustNew(tc.v, 1, cfg, 1)
		if got := m.ActCycles(); got != tc.act {
			t.Errorf("%v ActCycles = %d, want %d", tc.v, got, tc.act)
		}
		if got := m.RefCycles(); got != tc.ref {
			t.Errorf("%v RefCycles = %d, want %d", tc.v, got, tc.ref)
		}
	}
}

func TestCycleBudgetsRespected(t *testing.T) {
	// DDR4 budgets: 54 cycles per act, 420 per ref (Table I derivation).
	cfg := DefaultConfig(131072, 8192)
	for _, v := range []Variant{LiPRoMi, LoPRoMi, LoLiPRoMi} {
		m := MustNew(v, 1, cfg, 1)
		if m.ActCycles() > 54 {
			t.Errorf("%v act cycles %d exceed DDR4 budget 54", v, m.ActCycles())
		}
		if m.RefCycles() > 420 {
			t.Errorf("%v ref cycles %d exceed DDR4 budget 420", v, m.RefCycles())
		}
	}
}

func TestRegistryHasAllVariants(t *testing.T) {
	for _, name := range []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		f, err := mitigation.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m := f(mitigation.Target{Banks: 2, RowsPerBank: 16384, RefInt: 1024, FlipThreshold: 16384}, 1)
		if m.Name() != name {
			t.Errorf("factory for %s built %s", name, m.Name())
		}
	}
}

// TestWeightLUTsSharedAndExact pins the shared weight tables: instances
// of one (variant, RefInt) read the same backing arrays, every entry
// equals the reference variantWeight, and another RefInt gets tables of
// its own length.
func TestWeightLUTsSharedAndExact(t *testing.T) {
	cfg := testConfig()
	for _, v := range []Variant{LiPRoMi, LoPRoMi, LoLiPRoMi, QuaPRoMi} {
		a := MustNew(v, 2, cfg, 1)
		b := MustNew(v, 4, cfg, 2)
		if &a.lutHit[0] != &b.lutHit[0] || &a.lutMiss[0] != &b.lutMiss[0] {
			t.Fatalf("%v: instances built separate weight tables", v)
		}
		if len(a.lutHit) != cfg.RefInt || len(a.lutMiss) != cfg.RefInt {
			t.Fatalf("%v: table lengths %d/%d, want %d", v, len(a.lutHit), len(a.lutMiss), cfg.RefInt)
		}
		for w := 0; w < cfg.RefInt; w++ {
			if got, want := int(a.lutHit[w]), variantWeight(v, w, true, cfg.RefInt); got != want {
				t.Fatalf("%v: lutHit[%d] = %d, want %d", v, w, got, want)
			}
			if got, want := int(a.lutMiss[w]), variantWeight(v, w, false, cfg.RefInt); got != want {
				t.Fatalf("%v: lutMiss[%d] = %d, want %d", v, w, got, want)
			}
		}
	}
	wide := DefaultConfig(16384, 2*testConfig().RefInt)
	if got := len(MustNew(LiPRoMi, 1, wide, 1).lutHit); got != wide.RefInt {
		t.Fatalf("RefInt %d got a %d-entry table", wide.RefInt, got)
	}
	ca := MustNewCa(1, DefaultCaConfig(cfg.RowsPerBank, cfg.RefInt), 1)
	if lo := MustNew(LoPRoMi, 1, cfg, 1); &ca.loglut[0] != &lo.lutMiss[0] {
		t.Fatal("CaPRoMi built its own LogWeight table")
	}
}
