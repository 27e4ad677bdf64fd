package ssd

import (
	"fmt"
	"sort"
	"strings"
)

// ArrayConfigError reports an invalid array construction: no devices, a
// page-size mismatch between members, or an invalid tier specification.
// Callers that assemble arrays from operator-supplied device lists can
// detect it with errors.As and surface the offending shard.
type ArrayConfigError struct {
	// Reason is a short machine-checkable tag: "no-devices",
	// "page-size-mismatch", or "bad-tier-spec".
	Reason string
	// Shard is the offending member index, or -1 when the problem is not
	// attributable to one member.
	Shard int
	// Detail is the human-readable explanation.
	Detail string
}

// Error implements error.
func (e *ArrayConfigError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("ssd: array config (%s, shard %d): %s", e.Reason, e.Shard, e.Detail)
	}
	return fmt.Sprintf("ssd: array config (%s): %s", e.Reason, e.Detail)
}

// TierSpec describes one tier of a heterogeneous array: how many devices
// of a given profile class it contributes.
type TierSpec struct {
	// Profile is the device class shared by every shard of the tier.
	Profile Profile
	// Devices is the number of member devices (shards) in the tier.
	Devices int
}

// TierInfo describes one tier of an array as derived at construction.
type TierInfo struct {
	// Tier is the rank: 0 is the fastest (lowest read latency) tier.
	Tier int
	// Profile is the device class shared by the tier's shards.
	Profile Profile
	// Shards lists the member shard indices, ascending.
	Shards []int
}

// TierReporter is implemented by backends whose shards are grouped into
// performance tiers. A homogeneous Array (and a lone Device) is a single
// tier; serving and observability code may type-assert a Backend to this
// interface to learn the tier structure.
type TierReporter interface {
	// NumTiers returns the number of distinct device classes.
	NumTiers() int
	// TierOf returns the tier rank of a shard (0 = fastest).
	TierOf(shard int) int
	// Tier returns the tier's descriptor.
	Tier(t int) TierInfo
}

// NewTieredArray assembles a heterogeneous striped array from per-tier
// device specs: spec order determines shard numbering (the first spec's
// devices become shards 0..d0-1, and so on), while tier *ranks* are always
// assigned by read latency — the fastest class is tier 0 regardless of
// spec order. Page striping is unchanged (page p on shard p mod n), so
// which pages land on the fast tier is decided by the page-ID permutation
// the placement layer applies (placement.Retier), not by the array.
func NewTieredArray(specs []TierSpec) (*Array, error) {
	if len(specs) == 0 {
		return nil, &ArrayConfigError{Reason: "bad-tier-spec", Shard: -1, Detail: "no tier specs"}
	}
	var devs []*Device
	for i, sp := range specs {
		if sp.Devices < 1 {
			return nil, &ArrayConfigError{
				Reason: "bad-tier-spec", Shard: -1,
				Detail: fmt.Sprintf("tier spec %d (%s) has %d devices, need ≥ 1", i, sp.Profile.Name, sp.Devices),
			}
		}
		for j := 0; j < sp.Devices; j++ {
			d, err := NewDevice(sp.Profile)
			if err != nil {
				return nil, &ArrayConfigError{
					Reason: "bad-tier-spec", Shard: len(devs),
					Detail: fmt.Sprintf("tier spec %d (%s): %v", i, sp.Profile.Name, err),
				}
			}
			devs = append(devs, d)
		}
	}
	return NewArrayOf(devs)
}

// deriveTiers groups the member devices by profile name and ranks the
// groups by read latency ascending (ties broken by name for determinism),
// so tier 0 is always the fastest class. Because the grouping looks only
// at the devices, a SwapShard-rebuilt array recovers the same tier
// structure automatically.
func deriveTiers(devs []*Device) (tiers []TierInfo, tierOf []int) {
	byName := map[string]int{} // profile name → index into tiers
	for i, d := range devs {
		p := d.Profile()
		t, ok := byName[p.Name]
		if !ok {
			t = len(tiers)
			byName[p.Name] = t
			tiers = append(tiers, TierInfo{Profile: p})
		}
		tiers[t].Shards = append(tiers[t].Shards, i)
	}
	sort.SliceStable(tiers, func(i, j int) bool {
		if tiers[i].Profile.ReadLatency != tiers[j].Profile.ReadLatency {
			return tiers[i].Profile.ReadLatency < tiers[j].Profile.ReadLatency
		}
		return tiers[i].Profile.Name < tiers[j].Profile.Name
	})
	tierOf = make([]int, len(devs))
	for t := range tiers {
		tiers[t].Tier = t
		for _, s := range tiers[t].Shards {
			tierOf[s] = t
		}
	}
	return tiers, tierOf
}

// tieredName labels a heterogeneous array by its tier composition,
// fastest tier first, e.g. "Array-1xP5800X+3xP4510".
func tieredName(tiers []TierInfo) string {
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%dx%s", len(t.Shards), t.Profile.Name)
	}
	return "Array-" + strings.Join(parts, "+")
}

// NumTiers implements TierReporter.
func (a *Array) NumTiers() int { return len(a.tiers) }

// TierOf implements TierReporter.
func (a *Array) TierOf(shard int) int { return a.tierOf[shard] }

// Tier implements TierReporter. The returned Shards slice is shared; do
// not mutate it.
func (a *Array) Tier(t int) TierInfo { return a.tiers[t] }

// TierShardMap returns a copy of the shard → tier rank mapping, the input
// placement.Retier consumes.
func (a *Array) TierShardMap() []int {
	out := make([]int, len(a.tierOf))
	copy(out, a.tierOf)
	return out
}

// TierStats returns per-tier activity (member shard stats summed), indexed
// by tier rank.
func (a *Array) TierStats() []Stats {
	out := make([]Stats, len(a.tiers))
	for i, d := range a.devs {
		out[a.tierOf[i]].Add(d.Stats())
	}
	return out
}

// Single-device TierReporter implementation: a lone Device is one tier.

// NumTiers implements TierReporter.
func (d *Device) NumTiers() int { return 1 }

// TierOf implements TierReporter.
func (d *Device) TierOf(int) int { return 0 }

// Tier implements TierReporter.
func (d *Device) Tier(int) TierInfo {
	return TierInfo{Tier: 0, Profile: d.Profile(), Shards: []int{0}}
}
