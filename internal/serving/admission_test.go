package serving

import (
	"fmt"
	"slices"
	"testing"

	"maxembed/internal/placement"
)

// bothBackends builds the same engine configuration over the simulator and
// over shard files, and once more over the simulator without a store: the
// timing-only engine fills its cache with placeholders on a path of its own.
func (f *fixture) bothBackends(t *testing.T, mutate func(*Config)) map[string]*Engine {
	t.Helper()
	file, _ := f.fileEngine(t, 2, mutate)
	return map[string]*Engine{
		"sim":  f.engine(t, mutate),
		"file": file,
		"timing-only": f.engine(t, func(c *Config) {
			mutate(c)
			c.Store = nil
		}),
	}
}

// TestAdmissionFollowsReadWidth pins the page-cost side of admission on both
// backends, for isolated lookups and for batches (where the width is the
// union pass's): a key from a shared read never evicts, a solo key is put to
// the cache's frequency gate. The read widths come from the worker's plan —
// no faults here, so every planned page is one read — not from the record
// admission itself goes by.
func TestAdmissionFollowsReadWidth(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	for _, batch := range []int{1, 4} {
		for name, e := range f.bothBackends(t, func(c *Config) { c.CacheEntries = 40 }) {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				w, c := e.NewWorker(), e.Cache()
				var soloReads, sharedReads, evictions int
				for qi := 0; qi+batch <= 600; qi += batch {
					held := c.Len()
					full := held == c.Capacity()
					before := c.Stats()
					if _, err := w.LookupBatch(f.trace.Queries[qi : qi+batch]); err != nil {
						t.Fatal(err)
					}
					solo, shared := 0, 0
					for _, pe := range w.plan {
						if width := pe.to - pe.from; width == 1 {
							solo++
						} else {
							shared += width
						}
					}
					after := c.Stats()
					evicted, bypassed := after.Evictions-before.Evictions, after.Bypassed-before.Bypassed
					rejected := after.Rejected - before.Rejected
					grown := int64(c.Len() - held)
					// Every key read took a free slot, took a victim's, was
					// turned down by the gate or was passed by.
					if grown+evicted+rejected+bypassed != int64(solo+shared) {
						t.Fatalf("lookup %d: %d keys read, but %d slots filled + %d evictions + %d rejected + %d bypassed",
							qi, solo+shared, grown, evicted, rejected, bypassed)
					}
					if !full {
						continue
					}
					// Full: a solo key evicts exactly one entry or is
					// rejected, a key from a shared read changes nothing.
					if evicted+rejected != int64(solo) || bypassed != int64(shared) || grown != 0 {
						t.Fatalf("lookup %d on a full cache: %d solo keys and %d from shared reads gave %d evictions, %d rejected, %d bypassed, %+d entries",
							qi, solo, shared, evicted, rejected, bypassed, grown)
					}
					soloReads += solo
					sharedReads += shared
					evictions += int(evicted)
				}
				if soloReads == 0 || sharedReads == 0 || evictions == 0 || evictions == soloReads {
					t.Fatalf("full cache saw %d solo keys (%d evicted) and %d from shared reads: want both, and the gate to pass some and refuse some",
						soloReads, evictions, sharedReads)
				}
			})
		}
	}
}

// TestAdmissionWithRoomMatchesAdmitAll: a cache that never fills admits
// everything, so it serves exactly what the paper's admit-everything cache
// serves — same keys from DRAM, same pages read — and bypasses nothing.
func TestAdmissionWithRoomMatchesAdmitAll(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	// Twice the key count: no shard of the cache can fill however unevenly
	// the keys hash.
	roomy := func(c *Config) { c.CacheEntries = 2 * f.trace.NumItems }
	rule := f.bothBackends(t, roomy)
	all := f.bothBackends(t, func(c *Config) { roomy(c); c.AdmitAll = true })
	for name := range rule {
		t.Run(name, func(t *testing.T) {
			wr, wa := rule[name].NewWorker(), all[name].NewWorker()
			for qi, q := range f.trace.Queries[:600] {
				rr, err := wr.Lookup(q)
				if err != nil {
					t.Fatal(err)
				}
				ra, err := wa.Lookup(q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rr.Keys, ra.Keys) || rr.Stats.PagesRead != ra.Stats.PagesRead ||
					rr.Stats.CacheHits != ra.Stats.CacheHits {
					t.Fatalf("query %d: keys %v, %d pages, %d hits under the rule; %v, %d, %d admitting everything",
						qi, rr.Keys, rr.Stats.PagesRead, rr.Stats.CacheHits, ra.Keys, ra.Stats.PagesRead, ra.Stats.CacheHits)
				}
			}
			rs, as := rule[name].Cache().Stats(), all[name].Cache().Stats()
			if rs != as || rs.Bypassed != 0 || rs.Evictions != 0 {
				t.Fatalf("cache stats %+v under the rule, %+v admitting everything: want equal, nothing bypassed or evicted", rs, as)
			}
		})
	}
}
