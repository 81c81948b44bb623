package freq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactCounts(t *testing.T) {
	e := NewExact()
	if got := e.Observe("a"); got != 1 {
		t.Fatalf("first observe = %d, want 1", got)
	}
	if got := e.Observe("a"); got != 2 {
		t.Fatalf("second observe = %d, want 2", got)
	}
	e.Observe("b")
	if e.Estimate("a") != 2 || e.Estimate("b") != 1 || e.Estimate("c") != 0 {
		t.Fatal("estimates wrong")
	}
	if e.Total() != 3 {
		t.Fatalf("total = %d, want 3", e.Total())
	}
	e.Reset("a")
	if e.Estimate("a") != 0 {
		t.Fatal("reset did not clear count")
	}
	if e.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1", e.Distinct())
	}
}

func TestLossyNeverOvercounts(t *testing.T) {
	l := NewLossy(0.01)
	truth := map[string]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(500))
		truth[k]++
		l.Observe(k)
	}
	for k, want := range truth {
		if got := l.Estimate(k); got > want {
			t.Fatalf("key %s overcounted: est %d > true %d", k, got, want)
		}
	}
}

func TestLossyUndercountBound(t *testing.T) {
	eps := 0.005
	l := NewLossy(eps)
	truth := map[string]int{}
	rng := rand.New(rand.NewSource(42))
	// Zipf-ish mix: a few hot keys plus a long tail.
	zipf := rand.NewZipf(rng, 1.3, 1.0, 9999)
	n := 50000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", zipf.Uint64())
		truth[k]++
		l.Observe(k)
	}
	bound := int(eps*float64(n)) + 1
	for k, want := range truth {
		got := l.Estimate(k)
		if want-got > bound {
			t.Fatalf("key %s undercounted beyond bound: true %d est %d bound %d",
				k, want, got, bound)
		}
	}
}

func TestLossySpaceIsBounded(t *testing.T) {
	eps := 0.01
	l := NewLossy(eps)
	// All-distinct stream: worst case for space.
	n := 100000
	for i := 0; i < n; i++ {
		l.Observe(fmt.Sprintf("unique-%d", i))
	}
	// Theoretical bound: (1/eps) * log(eps*N). Allow slack factor 2.
	limit := int(2.0 / eps * 8) // log2(0.01*1e5)=~10; generous
	if l.Tracked() > limit {
		t.Fatalf("lossy counter tracking %d entries, bound ~%d", l.Tracked(), limit)
	}
}

func TestLossyHeavyHitters(t *testing.T) {
	l := NewLossy(0.001)
	for i := 0; i < 10000; i++ {
		l.Observe("hot")
		if i%10 == 0 {
			l.Observe(fmt.Sprintf("cold%d", i))
		}
	}
	hh := l.HeavyHitters(0.5)
	found := false
	for _, k := range hh {
		if k == "hot" {
			found = true
		}
		if k != "hot" {
			t.Fatalf("false heavy hitter %q", k)
		}
	}
	if !found {
		t.Fatal("true heavy hitter not reported")
	}
}

func TestLossyReset(t *testing.T) {
	l := NewLossy(0.01)
	for i := 0; i < 50; i++ {
		l.Observe("x")
	}
	l.Reset("x")
	if l.Estimate("x") != 0 {
		t.Fatal("reset did not clear estimate")
	}
	if got := l.Observe("x"); got != 1 {
		t.Fatalf("post-reset observe = %d, want 1 (frequently-updated keys must not be bought)", got)
	}
}

func TestNewLossyValidatesEpsilon(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("epsilon %v did not panic", eps)
				}
			}()
			NewLossy(eps)
		}()
	}
}

// Property: lossy estimates are sandwiched between true-eps*N and true count
// for arbitrary streams.
func TestLossyGuaranteeProperty(t *testing.T) {
	f := func(seed int64, keysRaw uint8) bool {
		eps := 0.02
		nkeys := int(keysRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		l := NewLossy(eps)
		truth := map[string]int{}
		n := 5000
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(nkeys))
			truth[k]++
			l.Observe(k)
		}
		bound := int(eps*float64(n)) + 1
		for k, want := range truth {
			got := l.Estimate(k)
			if got > want || want-got > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Observe's return value equals Estimate immediately afterwards...
// unless the observation itself triggered a compression that evicted the
// key; in that case Estimate must be 0.
func TestLossyObserveEstimateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLossy(0.05)
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(100))
			ret := l.Observe(k)
			est := l.Estimate(k)
			if est != ret && est != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
