//go:build amd64 && !amd64.v3

// Exact bits of a float64 sum depend on whether the compiler fuses a
// multiply and an add into one FMA instruction, which it may do for
// GOAMD64=v3 and on other architectures but never for the amd64 baseline.
// The same commit reports different makespans on hosts that differ only
// there, so these pinned bits hold on baseline amd64 alone. Everywhere else
// the sim kernel's heap-order property test (internal/sim) is the guarantee
// that a kernel change cannot reorder a simulation.

package exec

import (
	"fmt"
	"math"
	"testing"

	"joinopt/internal/cluster"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// pathsPin is what TestExecPathsGolden pins of one run: the makespan as
// math.Float64bits of seconds, and the Report counters.
type pathsPin struct {
	Makespan                             uint64
	ComputeReqs, DataReqs, NoCacheReqs   int64
	MemHits, DiskHits                    int64
	ComputedAtDN, ReturnedRaw            int64
	Messages, BytesOnWire, Invalidations int64
}

func pinOf(r Report) pathsPin {
	return pathsPin{
		Makespan:    math.Float64bits(r.Makespan),
		ComputeReqs: r.ComputeReqs, DataReqs: r.DataReqs, NoCacheReqs: r.NoCacheReqs,
		MemHits: r.MemHits, DiskHits: r.DiskHits,
		ComputedAtDN: r.ComputedAtDN, ReturnedRaw: r.ReturnedRaw,
		Messages: r.Messages, BytesOnWire: r.BytesOnWire, Invalidations: r.Invalidations,
	}
}

// pathsCases are the executor paths the sim_paper benchmark never reaches
// (it is single-stage, with no selectivity, disk-cache tier, block cache
// or updates), one configuration each.
var pathsCases = []struct {
	name string
	run  func(t *testing.T) Report
	pin  pathsPin
}{
	{
		// Request reuse across stages, and survives.
		name: "FO two stages selectivity 0.5",
		run: func(t *testing.T) Report {
			cfg := cluster.DefaultConfig()
			cfg.Nodes = 8
			c := cluster.New(cfg)
			c.AssignRoles(4, 4, false)
			st := store.New()
			catalog := store.CatalogFunc(func(string) store.RowMeta {
				return store.RowMeta{ValueSize: 4 << 10, ComputedSize: 64, ComputeCost: 2e-4}
			})
			st.AddTable(store.NewTable("d1", catalog, 2, c.DataNodes()))
			st.AddTable(store.NewTable("d2", catalog, 2, c.DataNodes()))
			tuples := make([]Tuple, 3000)
			for i := range tuples {
				tuples[i] = Tuple{
					Keys:      []string{fmt.Sprintf("a%d", i*i%397), fmt.Sprintf("b%d", i%53)},
					ParamSize: 100,
				}
			}
			return New(Config{
				Cluster: c, Store: st, Tables: []string{"d1", "d2"},
				Strategy: FO, StageSelectivity: []float64{0.5, 1}, Seed: 3,
			}, &SliceSource{Tuples: tuples}).Run()
		},
		pin: pathsPin{Makespan: 0x3fb7e99a2dfdf5e2, ComputeReqs: 2219, DataReqs: 1747, NoCacheReqs: 0, MemHits: 478, DiskHits: 0, ComputedAtDN: 1221, ReturnedRaw: 998, Messages: 633, BytesOnWire: 30535361, Invalidations: 0},
	},
	{
		// A tiny mCache and a bounded dCache: bought values land on the
		// disk tier (RouteLocalDisk).
		name: "CO disk cache tier",
		run: func(t *testing.T) Report {
			cfg, src := rig(t, workload.DataHeavy, 3000, 1.5, CO)
			cfg.MemCacheBytes = 256 << 10
			cfg.DiskCacheBytes = 8 << 20
			return New(cfg, src).Run()
		},
		pin: pathsPin{Makespan: 0x3fd20642e9949f0e, ComputeReqs: 1524, DataReqs: 1101, NoCacheReqs: 0, MemHits: 152, DiskHits: 223, ComputedAtDN: 1524, ReturnedRaw: 0, Messages: 348, BytesOnWire: 28442728, Invalidations: 0},
	},
	{
		// The data-node block cache: hits read through a serve slot.
		name: "FD block cache",
		run: func(t *testing.T) Report {
			cfg, src := rig(t, workload.DataHeavy, 3000, 1.5, FD)
			cfg.BlockCacheBytes = 16 << 20
			return New(cfg, src).Run()
		},
		pin: pathsPin{Makespan: 0x3fb14289995efb00, ComputeReqs: 3000, DataReqs: 0, NoCacheReqs: 0, MemHits: 0, DiskHits: 0, ComputedAtDN: 3000, ReturnedRaw: 0, Messages: 228, BytesOnWire: 11949168, Invalidations: 0},
	},
	{
		// Periodic applyUpdate on the hottest key: invalidation sends.
		name: "CO periodic updates",
		run: func(t *testing.T) Report {
			cfg, src := rig(t, workload.DataHeavy, 3000, 1.5, CO)
			ex := New(cfg, src)
			updatesEvery(ex, "k0000000", 0.02, false)
			ex.deal()
			ex.k.Run()
			return ex.buildReport()
		},
		pin: pathsPin{Makespan: 0x3fd1ff582f507606, ComputeReqs: 1527, DataReqs: 1094, NoCacheReqs: 0, MemHits: 379, DiskHits: 0, ComputedAtDN: 1527, ReturnedRaw: 0, Messages: 336, BytesOnWire: 27815832, Invalidations: 0},
	},
}

// TestExecPathsGolden pins the makespan and counters of each of pathsCases
// bit for bit: an executor change that reorders one event on any of these
// paths fails here, where the sim_paper golden would not see it.
func TestExecPathsGolden(t *testing.T) {
	for _, c := range pathsCases {
		got := pinOf(c.run(t))
		if c.pin == (pathsPin{}) {
			t.Errorf("%s: not pinned; got\n%#v", c.name, got)
			continue
		}
		if got != c.pin {
			t.Errorf("%s (makespan %v s):\n got %+v\nwant %+v (makespan %v s)", c.name,
				math.Float64frombits(got.Makespan), got, c.pin, math.Float64frombits(c.pin.Makespan))
		}
	}
}
