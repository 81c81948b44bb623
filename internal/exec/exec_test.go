package exec

import (
	"fmt"
	"hash/fnv"
	"testing"

	"joinopt/internal/cluster"
	"joinopt/internal/sim"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// rig builds a small 4-compute/4-data cluster with one synthetic table.
func rig(t *testing.T, kind workload.SynthKind, tuples int, skew float64, strategy Strategy) (Config, Source) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 8
	c := cluster.New(cfg)
	c.AssignRoles(4, 4, false)

	syn := workload.NewSynth(kind, tuples, skew, 7)
	syn.Keys = 50_000 // keep CDF construction cheap in unit tests

	st := store.New()
	st.AddTable(store.NewTable("syn", syn.Catalog(), 2, c.DataNodes()))

	return Config{
		Cluster:  c,
		Store:    st,
		Tables:   []string{"syn"},
		Strategy: strategy,
		Seed:     11,
	}, syn.Source()
}

func run(t *testing.T, kind workload.SynthKind, tuples int, skew float64, s Strategy) Report {
	t.Helper()
	cfg, src := rig(t, kind, tuples, skew, s)
	rep := New(cfg, src).Run()
	if rep.Tuples != int64(tuples) {
		t.Fatalf("%v completed %d of %d tuples", s, rep.Tuples, tuples)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("%v makespan %v", s, rep.Makespan)
	}
	return rep
}

func TestAllStrategiesComplete(t *testing.T) {
	for _, s := range []Strategy{NO, FC, FD, FR, CO, LO, FO} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			run(t, workload.DataHeavy, 2000, 1.0, s)
		})
	}
}

func TestStrategyRequestMix(t *testing.T) {
	// FC only fetches; FD only computes remotely; FR mixes.
	fc := run(t, workload.DataHeavy, 2000, 0, FC)
	if fc.ComputeReqs != 0 || fc.NoCacheReqs != 2000 {
		t.Fatalf("FC mix: %+v", fc)
	}
	fd := run(t, workload.DataHeavy, 2000, 0, FD)
	if fd.ComputeReqs != 2000 || fd.NoCacheReqs != 0 || fd.DataReqs != 0 {
		t.Fatalf("FD mix: compute=%d nocache=%d data=%d", fd.ComputeReqs, fd.NoCacheReqs, fd.DataReqs)
	}
	if fd.ComputedAtDN != 2000 || fd.ReturnedRaw != 0 {
		t.Fatalf("FD without LB must compute everything at data nodes: %+v", fd)
	}
	fr := run(t, workload.DataHeavy, 2000, 0, FR)
	if fr.ComputeReqs == 0 || fr.NoCacheReqs == 0 {
		t.Fatalf("FR did not mix: %+v", fr)
	}
}

func TestFOCachesHotKeysUnderSkew(t *testing.T) {
	rep := run(t, workload.DataHeavy, 6000, 1.5, FO)
	if rep.DataReqs == 0 {
		t.Fatal("FO never bought a hot key under heavy skew")
	}
	if rep.MemHits+rep.DiskHits == 0 {
		t.Fatal("FO cache produced no hits under heavy skew")
	}
	// Uniform: effectively no repeated keys, so no cache benefit.
	uni := run(t, workload.DataHeavy, 2000, 0, FO)
	if uni.MemHits > uni.Tuples/10 {
		t.Fatalf("uniform workload should not hit cache much: %d hits", uni.MemHits)
	}
}

func TestFOBeatsFDUnderSkewDataHeavy(t *testing.T) {
	fo := run(t, workload.DataHeavy, 6000, 1.5, FO)
	fd := run(t, workload.DataHeavy, 6000, 1.5, FD)
	if fo.Makespan >= fd.Makespan {
		t.Fatalf("FO (%.3fs) not faster than FD (%.3fs) at z=1.5 on DH",
			fo.Makespan, fd.Makespan)
	}
}

func TestLOSplitsComputeHeavyWork(t *testing.T) {
	rep := run(t, workload.ComputeHeavy, 1500, 0, LO)
	if rep.ReturnedRaw == 0 {
		t.Fatal("LO balancer never returned work to compute nodes")
	}
	if rep.ComputedAtDN == 0 {
		t.Fatal("LO balancer never computed at data nodes")
	}
	// With symmetric nodes the split should be within [20%, 80%].
	frac := float64(rep.ComputedAtDN) / float64(rep.ComputedAtDN+rep.ReturnedRaw)
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("LO split fraction %.2f implausible", frac)
	}
}

func TestLOBeatsFDOnComputeHeavy(t *testing.T) {
	lo := run(t, workload.ComputeHeavy, 1500, 0, LO)
	fd := run(t, workload.ComputeHeavy, 1500, 0, FD)
	// FD uses only the 4 data nodes' CPUs; LO uses all 8.
	if lo.Makespan >= fd.Makespan*0.9 {
		t.Fatalf("LO (%.1fs) should clearly beat FD (%.1fs) on CH",
			lo.Makespan, fd.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, workload.DataComputeHeavy, 1200, 1.0, FO)
	b := run(t, workload.DataComputeHeavy, 1200, 1.0, FO)
	if a.Makespan != b.Makespan || a.ComputeReqs != b.ComputeReqs ||
		a.MemHits != b.MemHits || a.BytesOnWire != b.BytesOnWire {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestMultiStagePipeline(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 8
	c := cluster.New(cfg)
	c.AssignRoles(4, 4, false)
	st := store.New()
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 500, ComputedSize: 64, ComputeCost: 1e-5}
	})
	st.AddTable(store.NewTable("d1", catalog, 2, c.DataNodes()))
	st.AddTable(store.NewTable("d2", catalog, 2, c.DataNodes()))

	n := 3000
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{
			Keys:      []string{fmt.Sprintf("a%d", i%100), fmt.Sprintf("b%d", i%50)},
			ParamSize: 100,
		}
	}
	ex := New(Config{
		Cluster:          c,
		Store:            st,
		Tables:           []string{"d1", "d2"},
		Strategy:         FO,
		StageSelectivity: []float64{0.5, 1},
		Seed:             3,
	}, &SliceSource{Tuples: tuples})
	rep := ex.Run()
	if rep.Tuples != int64(n) {
		t.Fatalf("completed %d of %d", rep.Tuples, n)
	}
	// Roughly half the tuples must be dropped after stage 0, so stage-1
	// requests should be well below n; total requests must exceed n.
	total := rep.ComputeReqs + rep.DataReqs + rep.NoCacheReqs + rep.MemHits + rep.DiskHits
	if total <= int64(n) || total >= int64(2*n) {
		t.Fatalf("two-stage with 0.5 selectivity handled %d stage-requests for %d tuples", total, n)
	}
}

func TestSelectivityZeroDropsEverythingAfterStageOne(t *testing.T) {
	cfg, src := rig(t, workload.DataHeavy, 500, 0, FO)
	cfg.StageSelectivity = []float64{0}
	rep := New(cfg, src).Run()
	if rep.Tuples != 500 {
		t.Fatalf("tuples = %d", rep.Tuples)
	}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{Tuples: []Tuple{{Keys: []string{"a"}}, {Keys: []string{"b"}}}}
	t1, ok1 := s.Next()
	t2, ok2 := s.Next()
	_, ok3 := s.Next()
	if !ok1 || !ok2 || ok3 || t1.Keys[0] != "a" || t2.Keys[0] != "b" {
		t.Fatal("SliceSource sequence wrong")
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{NO: "NO", FC: "FC", FD: "FD", FR: "FR", CO: "CO", LO: "LO", FO: "FO"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %s, want %s", int(s), s.String(), w)
		}
	}
}

func TestSurvivesDeterministic(t *testing.T) {
	if survives("k", 0, 1) != true || survives("k", 0, 0) != false {
		t.Fatal("selectivity extremes wrong")
	}
	a := survives("key1", 2, 0.5)
	for i := 0; i < 10; i++ {
		if survives("key1", 2, 0.5) != a {
			t.Fatal("survives not deterministic")
		}
	}
	// Roughly half of many keys survive.
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if survives(fmt.Sprintf("k%d", i), 1, 0.5) {
			hits++
		}
	}
	if hits < 4500 || hits > 5500 {
		t.Fatalf("selectivity 0.5 passed %d of %d", hits, n)
	}
}

// TestStageHashMatchesFNV: the inline hash is bit for bit the hash.Hash64
// FNV-1a of fmt's "%s/%d" that survives used to build per call, so every
// survival decision is unchanged.
func TestStageHashMatchesFNV(t *testing.T) {
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("k%07d", i*7919%2_000_000)
		if i%3 == 0 {
			key = fmt.Sprintf("item/%d#%x", i, i*i) // separators and hex in the key
		}
		for stage := 0; stage <= 5; stage++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s/%d", key, stage)
			if want, got := h.Sum64(), stageHash(key, stage); got != want {
				t.Fatalf("stageHash(%q, %d) = %#x, fnv+Fprintf %#x", key, stage, got, want)
			}
		}
	}
}

func TestUpdatesInvalidateCaches(t *testing.T) {
	cfg, src := rig(t, workload.DataHeavy, 4000, 1.5, FO)
	ex := New(cfg, src)
	// Update the hottest key midway: versions bump, cachers get notified.
	ex.k.At(1e-3, func() {
		for _, dn := range ex.datas {
			dn.applyUpdate(0, "k0000000", false)
		}
	})
	rep := ex.buildAndRun(t)
	if rep.Tuples != 4000 {
		t.Fatalf("completed %d", rep.Tuples)
	}
}

// buildAndRun is a test helper so the update test can schedule events before
// running.
func (ex *Executor) buildAndRun(t *testing.T) Report {
	t.Helper()
	for _, cn := range ex.computes {
		cn.pump()
	}
	ex.k.Run()
	return ex.buildReport()
}

// Property: every admitted tuple completes exactly once, for arbitrary
// strategy/skew/batch-size/stage combinations (no lost or duplicated work,
// no deadlock in the batching/backpressure machinery).
func TestTupleConservationProperty(t *testing.T) {
	strategies := []Strategy{NO, FC, FD, FR, CO, LO, FO}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		s := strategies[trial%len(strategies)]
		t.Run(fmt.Sprintf("trial%d-%s", trial, s), func(t *testing.T) {
			cfg, src := rig(t, workload.SynthKind(trial%3), 700+trial*113,
				float64(trial%4)*0.5, s)
			cfg.BatchSize = 1 + trial*7%96
			cfg.Window = 16 + trial*31%300
			cfg.MaxPerDataNode = 4 + trial*13%48
			if trial%2 == 0 {
				cfg.StageSelectivity = []float64{0.7}
			}
			rep := New(cfg, src).Run()
			want := int64(700 + trial*113)
			if rep.Tuples != want {
				t.Fatalf("completed %d of %d tuples", rep.Tuples, want)
			}
		})
	}
}

// Property: the per-pair backpressure cap is never exceeded at flush time.
func TestBackpressureCapRespected(t *testing.T) {
	cfg, src := rig(t, workload.ComputeHeavy, 3000, 1.5, FO)
	cfg.MaxPerDataNode = 8
	ex := New(cfg, src)
	ex.deal()
	// Walk the simulation manually, checking the invariant periodically.
	// The limit must grow monotonically: RunUntil does not advance the
	// clock past the last executed event.
	var limit sim.Time
	for ex.k.Pending() > 0 {
		limit += 0.25
		ex.k.RunUntil(limit)
		for _, cn := range ex.computes {
			for j, n := range cn.outstandingTo {
				// One chunk may overshoot the cap by up to BatchSize-1
				// (the flush loop checks before sending).
				if n > cfg.MaxPerDataNode+ex.cfg.BatchSize {
					t.Fatalf("outstanding to node %d = %d, cap %d",
						j, n, cfg.MaxPerDataNode)
				}
				if n < 0 {
					t.Fatalf("negative outstanding to node %d: %d", j, n)
				}
			}
		}
	}
	rep := ex.buildReport()
	if rep.Tuples != 3000 {
		t.Fatalf("completed %d", rep.Tuples)
	}
}
