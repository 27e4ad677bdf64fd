// Package cluster shards a MaxEmbed deployment across multiple SSDs. The
// paper's motivation is models growing 10× per year past single-device
// capacity (§1); production serving therefore hash-partitions the key
// space over many drives, runs the offline phase independently per shard
// (placement only exploits co-appearance *within* a shard's keys), and
// fans each query out to all shards it touches. The cluster's query
// latency is the slowest shard's, which is why per-shard read-amplification
// reductions translate directly into cluster tail latency.
package cluster

import (
	"fmt"

	"maxembed/internal/cache"
	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/shp"
	"maxembed/internal/ssd"
)

// Key is a global embedding key.
type Key = uint32

// Config assembles a sharded deployment.
type Config struct {
	// Shards is the number of independent (device, layout, engine)
	// shards. Required ≥ 1.
	Shards int
	// NumItems is the global key-space size.
	NumItems int
	// Strategy, ReplicationRatio and Seed drive each shard's offline
	// phase.
	Strategy         placement.Strategy
	ReplicationRatio float64
	Seed             int64
	// Dim and PageSize shape pages (defaults 64 / 4096).
	Dim, PageSize int
	// Device is the per-shard SSD profile (default P5800X).
	Device ssd.Profile
	// CacheRatio sizes each shard's DRAM cache relative to its keys.
	CacheRatio float64
	// IndexLimit is the per-shard index-shrinking bound.
	IndexLimit int
	// Sharding selects how keys map to shards. ShardingHash (default)
	// spreads keys uniformly, which balances load but scatters
	// co-appearing keys across shards; ShardingLocality runs a coarse
	// hypergraph partition over the history so co-appearing keys share a
	// shard, preserving the structure the per-shard placement exploits.
	Sharding Sharding
}

// Sharding names a key→shard assignment policy.
type Sharding string

// Available sharding policies.
const (
	ShardingHash     Sharding = ""         // default
	ShardingLocality Sharding = "locality" // coarse SHP over the history
)

// Cluster is an immutable sharded deployment; create Sessions to serve.
type Cluster struct {
	numShards int
	shardOf   []uint8  // global key → shard
	localID   []uint32 // global key → shard-local key
	globalID  [][]Key  // shard → local key → global key
	engines   []*serving.Engine
	devices   []*ssd.Device
}

// Build runs the offline phase for every shard over its projection of the
// history trace.
func Build(history [][]Key, cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: Shards must be ≥ 1, got %d", cfg.Shards)
	}
	if cfg.Shards > 255 {
		return nil, fmt.Errorf("cluster: at most 255 shards, got %d", cfg.Shards)
	}
	if cfg.NumItems < 0 {
		return nil, fmt.Errorf("cluster: NumItems must be non-negative")
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 64
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.Device.PageSize == 0 {
		cfg.Device = ssd.P5800X
	}
	if cfg.Strategy == "" {
		cfg.Strategy = placement.StrategyMaxEmbed
	}

	c := &Cluster{
		numShards: cfg.Shards,
		shardOf:   make([]uint8, cfg.NumItems),
		localID:   make([]uint32, cfg.NumItems),
		globalID:  make([][]Key, cfg.Shards),
	}
	switch cfg.Sharding {
	case ShardingHash:
		// Hash-partition the key space (same mixer as the cache's).
		for k := 0; k < cfg.NumItems; k++ {
			s := uint8(cache.Uint32Hasher(uint32(k)) % uint64(cfg.Shards))
			c.shardOf[k] = s
			c.localID[k] = uint32(len(c.globalID[s]))
			c.globalID[s] = append(c.globalID[s], Key(k))
		}
	case ShardingLocality:
		g, err := hypergraph.FromQueries(cfg.NumItems, asVertices(history))
		if err != nil {
			return nil, fmt.Errorf("cluster: locality sharding: %w", err)
		}
		res, err := shp.Partition(g, shp.Options{
			NumBuckets: cfg.Shards,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: locality sharding: %w", err)
		}
		for k, b := range res.Assign {
			s := uint8(b)
			c.shardOf[k] = s
			c.localID[k] = uint32(len(c.globalID[s]))
			c.globalID[s] = append(c.globalID[s], Key(k))
		}
	default:
		return nil, fmt.Errorf("cluster: unknown sharding policy %q", cfg.Sharding)
	}

	// Project the history per shard and run each shard's offline phase.
	perShard := make([][][]hypergraph.Vertex, cfg.Shards)
	scratch := make([][]hypergraph.Vertex, cfg.Shards)
	for _, q := range history {
		for s := range scratch {
			scratch[s] = scratch[s][:0]
		}
		for _, k := range q {
			if int(k) >= cfg.NumItems {
				return nil, fmt.Errorf("cluster: history key %d out of range", k)
			}
			s := c.shardOf[k]
			scratch[s] = append(scratch[s], c.localID[k])
		}
		for s, keys := range scratch {
			if len(keys) == 0 {
				continue
			}
			cp := make([]hypergraph.Vertex, len(keys))
			copy(cp, keys)
			perShard[s] = append(perShard[s], cp)
		}
	}

	capacity := embedding.PageCapacity(cfg.PageSize, cfg.Dim)
	for s := 0; s < cfg.Shards; s++ {
		g, err := hypergraph.FromQueries(len(c.globalID[s]), perShard[s])
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d hypergraph: %w", s, err)
		}
		lay, err := placement.Build(cfg.Strategy, g, placement.Options{
			Capacity:         capacity,
			ReplicationRatio: cfg.ReplicationRatio,
			Seed:             cfg.Seed + int64(s),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d placement: %w", s, err)
		}
		dev, err := ssd.NewDevice(cfg.Device)
		if err != nil {
			return nil, err
		}
		eng, err := serving.New(serving.Config{
			Layout:       lay,
			Device:       dev,
			CacheEntries: int(cfg.CacheRatio * float64(lay.NumKeys)),
			AdmitAll:     true, // the scaleout figure keeps the paper's cache
			IndexLimit:   cfg.IndexLimit,
			Pipeline:     true,
			VectorBytes:  embedding.BytesPerVector(cfg.Dim),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d engine: %w", s, err)
		}
		c.engines = append(c.engines, eng)
		c.devices = append(c.devices, dev)
	}
	return c, nil
}

// asVertices reinterprets the history queries as hypergraph vertex lists
// (Key and hypergraph.Vertex are both uint32).
func asVertices(history [][]Key) [][]hypergraph.Vertex {
	out := make([][]hypergraph.Vertex, len(history))
	for i, q := range history {
		out[i] = q
	}
	return out
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return c.numShards }

// ShardOf returns the shard serving global key k.
func (c *Cluster) ShardOf(k Key) int { return int(c.shardOf[k]) }

// Engine returns shard s's serving engine (for stats and harnesses).
func (c *Cluster) Engine(s int) *serving.Engine { return c.engines[s] }

// Stats aggregates device statistics across shards.
func (c *Cluster) Stats() ssd.Stats {
	var total ssd.Stats
	for _, d := range c.devices {
		total.Add(d.Stats())
	}
	return total
}

// Result is one fanned-out lookup's outcome.
type Result struct {
	// LatencyNS is the slowest shard's virtual latency — what the caller
	// observes when shards are queried in parallel.
	LatencyNS int64
	// PagesRead and CacheHits sum over shards; ShardsTouched counts the
	// shards that held at least one queried key.
	PagesRead, CacheHits, ShardsTouched int
	// Retries sums recovery reads across shards.
	Retries int
	// Degraded is set when any shard returned a partial result; FailedKeys
	// then lists the unserved keys, translated back to global key space.
	Degraded   bool
	FailedKeys []Key
}

// Session is a single-threaded fan-out handle holding one worker per
// shard. Not safe for concurrent use; create one per serving goroutine.
type Session struct {
	c       *Cluster
	workers []*serving.Worker
	bufs    [][]Key
}

// NewSession returns a session with a worker on every shard.
func (c *Cluster) NewSession() *Session {
	s := &Session{c: c, bufs: make([][]Key, c.numShards)}
	for _, e := range c.engines {
		s.workers = append(s.workers, e.NewWorker())
	}
	return s
}

// Now returns the session's virtual clock: the latest clock among its
// per-shard workers.
func (s *Session) Now() int64 {
	var now int64
	for _, w := range s.workers {
		if w.Now() > now {
			now = w.Now()
		}
	}
	return now
}

// Lookup fans the query across the shards holding its keys. Shard
// sub-lookups proceed in parallel on the virtual clock: the result latency
// is the maximum over shards, not the sum.
func (s *Session) Lookup(query []Key) (Result, error) {
	var res Result
	for i := range s.bufs {
		s.bufs[i] = s.bufs[i][:0]
	}
	for _, k := range query {
		if int(k) >= len(s.c.shardOf) {
			return res, fmt.Errorf("cluster: key %d out of range", k)
		}
		sh := s.c.shardOf[k]
		s.bufs[sh] = append(s.bufs[sh], s.c.localID[k])
	}
	// Fan out: align every touched worker to the same start time (the
	// fan-out moment), then take the slowest completion.
	start := int64(0)
	for sh, keys := range s.bufs {
		if len(keys) > 0 && s.workers[sh].Now() > start {
			start = s.workers[sh].Now()
		}
	}
	var slowest int64
	for sh, keys := range s.bufs {
		if len(keys) == 0 {
			continue
		}
		res.ShardsTouched++
		w := s.workers[sh]
		w.SetNow(start)
		r, err := w.Lookup(keys)
		if err != nil {
			return res, fmt.Errorf("cluster: shard %d: %w", sh, err)
		}
		res.PagesRead += r.Stats.PagesRead
		res.CacheHits += r.Stats.CacheHits
		res.Retries += r.Stats.Retries
		// A degraded shard degrades the whole fan-out: surface its failed
		// keys in the caller's (global) key space.
		for _, lk := range r.FailedKeys {
			res.Degraded = true
			res.FailedKeys = append(res.FailedKeys, s.c.globalID[sh][lk])
		}
		if lat := r.Stats.LatencyNS(); lat > slowest {
			slowest = lat
		}
	}
	res.LatencyNS = slowest
	return res, nil
}
