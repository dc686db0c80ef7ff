package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tivapromi/internal/iofault"
	"tivapromi/internal/obs"
)

// Sharded checkpoints. A campaign at population scale carries far more
// state than a single JSONL file can rewrite per flush: each entry's line
// is encoded once when it is stored, but with one monolithic file every
// completed seed still copies, hashes and writes every line ever
// recorded. Sharded mode turns the checkpoint path into a directory of
// shard files, each a complete v2 checkpoint (header, checksummed
// entries, whole-file digest) holding the entries whose cell-group key
// hashes to it, and a flush rewrites only the shards that changed since
// the last one. Kill/resume semantics are unchanged — each shard is
// individually atomic (temp + fsync + rename), individually salvageable,
// and laid out in sorted-key order, so identical state produces
// identical bytes shard by shard no matter where a kill landed.
//
// Entries shard by cell group, not by entry: a sweep's seeds all hash
// with the sweep fingerprint, so one completed seed dirties exactly one
// shard, and the whole sweep resurrects from one file. The shard count
// is fixed at directory creation; reopening with a different count
// adopts the on-disk count (the header of shard 0 records it), so a
// misconfigured resume can never scatter entries across two layouts.

// shardFile names the i-th shard file inside the checkpoint directory.
func shardFile(i int) string { return fmt.Sprintf("shard-%04d.jsonl", i) }

// shardOf assigns a cell-group key to a shard (FNV-1a, the stdlib's
// stable non-cryptographic hash — the assignment is part of the on-disk
// layout and must never change between versions).
func shardOf(key string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// LoadShardedCheckpoint opens or creates a sharded checkpoint rooted at
// dir through the real filesystem. shards is the shard count for a fresh
// directory; an existing directory's recorded count wins.
func LoadShardedCheckpoint(dir string, shards int) (*Checkpoint, error) {
	return LoadShardedCheckpointFS(dir, shards, nil)
}

// LoadShardedCheckpointFS is LoadShardedCheckpoint with an explicit
// filesystem seam (nil means the passthrough iofault.OS). Damage is
// handled per shard: each shard file salvages and quarantines
// independently, and the aggregated LoadReport counts every salvaged and
// dropped entry across shards.
func LoadShardedCheckpointFS(dir string, shards int, fsys iofault.FS) (*Checkpoint, error) {
	if dir == "" {
		return nil, fmt.Errorf("sim: empty checkpoint path")
	}
	if shards < 1 {
		return nil, fmt.Errorf("sim: shard count %d, must be at least 1", shards)
	}
	if shards > maxCheckpointShards {
		return nil, fmt.Errorf("sim: shard count %d exceeds the %d cap", shards, maxCheckpointShards)
	}
	if fsys == nil {
		fsys = iofault.OS{}
	}
	c := &Checkpoint{path: dir, fs: fsys, FlushEvery: 1, data: newCheckpointState()}
	// The on-disk layout wins over the configured count: shard 0's header
	// records how many shards the directory was created with.
	if raw, err := fsys.ReadFile(filepath.Join(dir, shardFile(0))); err == nil {
		if n := headerShards(raw); n > 0 && n <= maxCheckpointShards {
			shards = n
		}
	} else if !isNotExist(err) {
		return nil, fmt.Errorf("sim: read checkpoint shard: %w", err)
	}
	c.shardN = shards
	c.dirtyShards = make([]bool, shards)

	var rep LoadReport
	var quarantined []string
	for i := 0; i < shards; i++ {
		p := filepath.Join(dir, shardFile(i))
		raw, err := fsys.ReadFile(p)
		if err != nil {
			if isNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("sim: read checkpoint shard: %w", err)
		}
		srep := c.load(raw)
		rep.Dropped += srep.Dropped
		rep.Migrated = rep.Migrated || srep.Migrated
		if srep.Err != nil {
			if rep.Err == nil {
				rep.Err = fmt.Errorf("shard %d: %w", i, srep.Err)
			}
			q := fmt.Sprintf("%s.corrupt-%d", p, time.Now().UnixNano())
			if renameErr := fsys.Rename(p, q); renameErr == nil {
				quarantined = append(quarantined, q)
				obs.CheckpointQuarantines.Inc()
				PruneQuarantine(fsys, p, QuarantineKeep)
			}
			obs.CheckpointSalvages.Inc()
			obs.Emit("checkpoint-quarantine",
				"path", p,
				"shard", strconv.Itoa(i),
				"dropped", strconv.Itoa(srep.Dropped),
				"err", srep.Err.Error())
			obs.Instant("checkpoint-quarantine", "checkpoint",
				"path", p, "shard", strconv.Itoa(i))
			// Rewrite the salvaged remainder of this shard immediately so a
			// crash before the next organic flush cannot lose it again.
			c.dirtyShards[i] = true
		} else if srep.Migrated {
			c.dirtyShards[i] = true
		}
	}
	rep.Entries = c.data.entries()
	rep.Quarantined = strings.Join(quarantined, ", ")
	c.report = rep

	dirty := false
	for _, d := range c.dirtyShards {
		dirty = dirty || d
	}
	if dirty {
		c.mu.Lock()
		err := c.flushLocked()
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// maxCheckpointShards bounds the shard fan-out (and with it the files a
// load opens). 4096 shards at the multi-GB scale the sharding targets
// keeps individual shard files around a megabyte.
const maxCheckpointShards = 4096

// headerShards extracts the shard count a v2 header line records (0 when
// the bytes are not a parseable sharded header — damage is dealt with by
// the per-shard load, not here).
func headerShards(raw []byte) int {
	hdr, _, ok := splitLine(raw)
	if !ok {
		return 0
	}
	var h ckptLine
	if json.Unmarshal(hdr, &h) != nil || h.Format != checkpointFormat {
		return 0
	}
	return h.Shards
}

// Sharded reports whether the checkpoint writes the sharded directory
// layout (false for a nil checkpoint or the single-file format).
func (c *Checkpoint) Sharded() bool { return c != nil && c.shardN > 0 }

// ShardCount returns the shard count (0 in single-file mode).
func (c *Checkpoint) ShardCount() int {
	if c == nil {
		return 0
	}
	return c.shardN
}

// markDirty records that key's shard changed. Requires c.mu held; a
// no-op in single-file mode (c.dirty alone drives those flushes).
func (c *Checkpoint) markDirty(key string) {
	if c.shardN > 0 {
		c.dirtyShards[shardOf(key, c.shardN)] = true
	}
}

// flushShardsLocked writes every dirty shard atomically and clears its
// flag on success. Requires c.mu held.
func (c *Checkpoint) flushShardsLocked() error {
	fsys := c.fs
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if err := fsys.MkdirAll(c.path); err != nil {
		return fmt.Errorf("sim: checkpoint dir: %w", err)
	}
	for i := 0; i < c.shardN; i++ {
		if !c.dirtyShards[i] {
			continue
		}
		raw, err := c.marshalShard(i)
		if err != nil {
			return fmt.Errorf("sim: marshal checkpoint shard %d: %w", i, err)
		}
		span := obs.StartSpan("checkpoint-shard-flush", "checkpoint",
			"shard", strconv.Itoa(i))
		if err := atomicWrite(fsys, c.path, filepath.Join(c.path, shardFile(i)), raw); err != nil {
			span.End("outcome", "err")
			return err
		}
		span.End("outcome", "ok")
		obs.CheckpointFlushes.Inc()
		c.dirtyShards[i] = false
	}
	c.dirty = 0
	return nil
}
