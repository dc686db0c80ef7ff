package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tivapromi/internal/iofault"
)

// ckptModel is a checkpoint's state as plain values, without the cached
// lines.
type ckptModel struct {
	sweeps  map[string]map[string]Result
	probes  map[string]json.RawMessage
	outputs map[string]string
}

func newCkptModel() ckptModel {
	return ckptModel{
		sweeps:  map[string]map[string]Result{},
		probes:  map[string]json.RawMessage{},
		outputs: map[string]string{},
	}
}

// modelOf copies c's values into a model.
func modelOf(c *Checkpoint) ckptModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := newCkptModel()
	for fp, sw := range c.data.Sweeps {
		for seed, e := range sw {
			if m.sweeps[fp] == nil {
				m.sweeps[fp] = map[string]Result{}
			}
			m.sweeps[fp][seed] = e.val
		}
	}
	for fp, e := range c.data.Probes {
		m.probes[fp] = e.val
	}
	for name, e := range c.data.Outputs {
		m.outputs[name] = e.val
	}
	return m
}

// holds reports whether m has any entry in shard i of n (n = 0: in the
// single file).
func (m ckptModel) holds(i, n int) bool {
	for _, keys := range [][]string{sortedKeys(m.sweeps), sortedKeys(m.probes), sortedKeys(m.outputs)} {
		for _, k := range keys {
			if n == 0 || shardOf(k, n) == i {
				return true
			}
		}
	}
	return false
}

// coldImage is the marshal-from-scratch encoder the checkpoint used
// before entry lines were cached: it re-encodes every entry from its
// value. It stays here as the oracle the cached lines must reproduce
// byte for byte. shard -1 renders the single-file image.
func coldImage(t *testing.T, m ckptModel, shard, shards int) []byte {
	t.Helper()
	var buf bytes.Buffer
	writeLine := func(l ckptLine) {
		raw, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	keep := func(key string) bool { return shard < 0 || shardOf(key, shards) == shard }
	hdr := ckptLine{Format: checkpointFormat, Version: checkpointVersion}
	if shard >= 0 {
		hdr.Shard, hdr.Shards = shard, shards
	}
	writeLine(hdr)
	for _, fp := range sortedKeys(m.sweeps) {
		if !keep(fp) {
			continue
		}
		for _, seed := range sortedKeys(m.sweeps[fp]) {
			data := marshal(m.sweeps[fp][seed])
			writeLine(ckptLine{K: lineSweep, FP: fp, Seed: seed,
				Sum: entrySum(lineSweep, fp, seed, data), Data: data})
		}
	}
	for _, fp := range sortedKeys(m.probes) {
		if keep(fp) {
			data := m.probes[fp]
			writeLine(ckptLine{K: lineProbe, FP: fp, Sum: entrySum(lineProbe, fp, "", data), Data: data})
		}
	}
	for _, name := range sortedKeys(m.outputs) {
		if keep(name) {
			data := marshal(m.outputs[name])
			writeLine(ckptLine{K: lineOutput, Name: name, Sum: entrySum(lineOutput, name, "", data), Data: data})
		}
	}
	h := sha256.Sum256(buf.Bytes())
	writeLine(ckptLine{K: lineDigest, Sum: hex.EncodeToString(h[:])})
	return buf.Bytes()
}

// coherence drives one checkpoint with random operations, mirroring them
// in a model, and checks the files against the cold oracle after every
// commit.
type coherence struct {
	t       *testing.T
	rng     *rand.Rand
	fs      *iofault.Chaos
	commits int
	seen    int // commits already checked
	model   ckptModel
}

func (h *coherence) open(path string, shards int) *Checkpoint {
	h.t.Helper()
	var ck *Checkpoint
	var err error
	if shards > 0 {
		ck, err = LoadShardedCheckpointFS(path, shards, h.fs)
	} else {
		ck, err = LoadCheckpointFS(path, h.fs)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	ck.FlushEvery = 1 + h.rng.Intn(4)
	return ck
}

// randText mixes in characters JSON escapes (HTML-sensitive, control,
// line separators) so the cached and cold encodings are compared where
// they could differ.
func (h *coherence) randText() string {
	alphabet := []string{"a", "Z", "7", " ", "<", ">", "&", "\"", "\\", "\n", "\t", " ", "é", "\x01"}
	var b bytes.Buffer
	for i := h.rng.Intn(24); i > 0; i-- {
		b.WriteString(alphabet[h.rng.Intn(len(alphabet))])
	}
	return b.String()
}

// step applies one random store (keys drawn from small sets, so most
// stores overwrite) and checks the files if it committed.
func (h *coherence) step(ck *Checkpoint) {
	h.t.Helper()
	switch op := h.rng.Intn(10); {
	case op < 6:
		fp := fmt.Sprintf("fp%d", h.rng.Intn(3))
		seed := uint64(h.rng.Intn(8))
		res := Result{Technique: "PARA", Seed: seed, TotalActs: h.rng.Uint64(),
			Flips: h.rng.Intn(5), OverheadPct: h.rng.Float64() * 10, Policy: h.randText()}
		if err := ck.record(fp, seed, res); err != nil {
			h.t.Fatal(err)
		}
		if h.model.sweeps[fp] == nil {
			h.model.sweeps[fp] = map[string]Result{}
		}
		h.model.sweeps[fp][seedKey(seed)] = res
	case op < 8:
		fp := fmt.Sprintf("probe%d", h.rng.Intn(3))
		v := map[string]any{"n": h.rng.Intn(100), "s": h.randText(), "f": h.rng.Float64()}
		if err := ck.PutProbe(fp, v); err != nil {
			h.t.Fatal(err)
		}
		raw, _ := json.Marshal(v)
		h.model.probes[fp] = raw
	default:
		name := []string{"table2", "fig4", "sect<3>"}[h.rng.Intn(3)]
		text := h.randText()
		if err := ck.PutOutput(name, text); err != nil {
			h.t.Fatal(err)
		}
		h.model.outputs[name] = text
	}
	h.check(ck)
}

// check compares the checkpoint's values with the model and, when a
// commit happened since the last check, every file with the oracle.
func (h *coherence) check(ck *Checkpoint) {
	h.t.Helper()
	if got := modelOf(ck); !reflect.DeepEqual(got, h.model) {
		h.t.Fatalf("checkpoint state diverged from the model:\n got %+v\nwant %+v", got, h.model)
	}
	if h.commits == h.seen {
		return
	}
	h.seen = h.commits
	files := map[int]string{-1: ck.Path()}
	n := ck.ShardCount()
	if n > 0 {
		files = map[int]string{}
		for i := 0; i < n; i++ {
			files[i] = filepath.Join(ck.Path(), shardFile(i))
		}
	}
	for i, p := range files {
		got, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			if h.model.holds(i, n) {
				h.t.Fatalf("%s holds entries but is not on disk", filepath.Base(p))
			}
			continue
		}
		if err != nil {
			h.t.Fatal(err)
		}
		if want := coldImage(h.t, h.model, i, n); !bytes.Equal(got, want) {
			h.t.Fatalf("%s differs from a cold re-encode of the same state:\n got %q\nwant %q",
				filepath.Base(p), got, want)
		}
	}
}

// reopened adopts the state a salvage load kept: every surviving entry
// must be one the model holds, byte for byte.
func (h *coherence) reopened(ck *Checkpoint) {
	h.t.Helper()
	got := modelOf(ck)
	for fp, sw := range got.sweeps {
		for seed, res := range sw {
			if !reflect.DeepEqual(res, h.model.sweeps[fp][seed]) {
				h.t.Fatalf("salvage resurrected sweep %s/%s as %+v", fp, seed, res)
			}
		}
	}
	for fp, raw := range got.probes {
		if !bytes.Equal(raw, h.model.probes[fp]) {
			h.t.Fatalf("salvage resurrected probe %s as %s", fp, raw)
		}
	}
	for name, text := range got.outputs {
		if want, ok := h.model.outputs[name]; !ok || text != want {
			h.t.Fatalf("salvage resurrected output %s as %q", name, text)
		}
	}
	h.model = got
	h.check(ck)
}

// TestCheckpointCacheCoherence is the property the cached entry lines
// rest on: after every flush, whatever sequence of stores, overwrites,
// FlushEvery settings, salvage loads, v1 migrations and shard layouts led
// there, the files equal a cold re-encode of the checkpoint's state.
func TestCheckpointCacheCoherence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			h := &coherence{t: t, rng: rand.New(rand.NewSource(seed)), model: newCkptModel()}
			h.fs = iofault.NewChaos(nil, iofault.ChaosConfig{Seed: uint64(seed)})
			h.fs.OnCommit = func(string, int) { h.commits++ }

			// Single file: random stores, then a torn tail salvaged on load.
			path := filepath.Join(dir, "ck.json")
			ck := h.open(path, 0)
			for i := 0; i < 60; i++ {
				h.step(ck)
			}
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			h.check(ck)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			hdr := bytes.IndexByte(raw, '\n') + 1
			if err := os.WriteFile(path, raw[:hdr+h.rng.Intn(len(raw)-hdr)], 0o644); err != nil {
				t.Fatal(err)
			}
			ck = h.open(path, 0)
			if ck.LoadReport().Err == nil {
				t.Fatal("torn file loaded clean")
			}
			h.reopened(ck)
			for i := 0; i < 40; i++ {
				h.step(ck)
			}

			// v1 migration of the model's state into a fresh file.
			v1 := checkpointV1File{Version: 1, Sweeps: map[string]*checkpointV1Sweep{},
				Outputs: map[string]checkpointV1Output{}, Probes: h.model.probes}
			for fp, sw := range h.model.sweeps {
				v1.Sweeps[fp] = &checkpointV1Sweep{Done: sw}
			}
			for name, text := range h.model.outputs {
				v1.Outputs[name] = checkpointV1Output{Text: text}
			}
			v1raw, err := json.MarshalIndent(v1, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			v1path := filepath.Join(dir, "v1.json")
			if err := os.WriteFile(v1path, v1raw, 0o644); err != nil {
				t.Fatal(err)
			}
			ck = h.open(v1path, 0)
			if !ck.LoadReport().Migrated {
				t.Fatal("v1 file was not migrated")
			}
			// Probe values keep their v1 bytes (indented); the model
			// follows what the checkpoint returns once it is equivalent.
			migrated := modelOf(ck).probes
			for fp, raw := range migrated {
				var compact bytes.Buffer
				if err := json.Compact(&compact, raw); err != nil || !bytes.Equal(compact.Bytes(), h.model.probes[fp]) {
					t.Fatalf("v1 probe %s migrated as %s, want %s", fp, raw, h.model.probes[fp])
				}
			}
			if len(migrated) != len(h.model.probes) {
				t.Fatalf("v1 migration kept %d of %d probes", len(migrated), len(h.model.probes))
			}
			h.model.probes = migrated
			h.check(ck)
			for i := 0; i < 40; i++ {
				h.step(ck)
			}

			// Sharded: random stores, a clean reopen, then a rotted shard.
			h.model = newCkptModel()
			sdir := filepath.Join(dir, "sharded")
			ck = h.open(sdir, 1+h.rng.Intn(4))
			for i := 0; i < 60; i++ {
				h.step(ck)
			}
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			h.check(ck)
			n := ck.ShardCount()
			ck = h.open(sdir, n)
			h.check(ck)
			for i := 0; i < 30; i++ {
				h.step(ck)
			}
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			h.check(ck)
			for i := 0; i < n; i++ {
				p := filepath.Join(sdir, shardFile(i))
				raw, err := os.ReadFile(p)
				if err != nil {
					continue
				}
				raw[hdr+h.rng.Intn(len(raw)-hdr)] ^= 0x20
				if err := os.WriteFile(p, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				break
			}
			ck = h.open(sdir, n)
			if ck.LoadReport().Err == nil {
				t.Fatal("rotted shard loaded clean")
			}
			h.reopened(ck)
			for i := 0; i < 30; i++ {
				h.step(ck)
			}
		})
	}
}

// TestCheckpointRecordAllocBounded pins the per-flush cost to the entry
// that changed: recording one seed into a single-file checkpoint that
// already holds 4096 entries must allocate well under the size of the
// file it rewrites (re-encoding every entry allocated over twice that).
func TestCheckpointRecordAllocBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	const held = 4096
	ck.FlushEvery = held + 1
	for s := uint64(1); s <= held; s++ {
		if err := ck.record("fp", s, seedResult(s)); err != nil {
			t.Fatal(err)
		}
	}
	ck.FlushEvery = 1
	// One write-through record first, so the reused image buffer has
	// reached the file's size before measuring.
	if err := ck.record("fp", held+1, seedResult(held+1)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const records = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := uint64(held + 2); s < held+2+records; s++ {
		if err := ck.record("fp", s, seedResult(s)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRecord := (after.TotalAlloc - before.TotalAlloc) / records
	if limit := uint64(fi.Size()) / 4; perRecord >= limit {
		t.Fatalf("record allocated %d B per flush of a %d B file, want < %d B (a quarter)",
			perRecord, fi.Size(), limit)
	}
	t.Logf("record allocated %d B per flush of a %d B file", perRecord, fi.Size())
}
