package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// powCDF is the Zipf CDF as NewZipf built it with one math.Pow call per
// rank: the reference the Pow-free build must match bit for bit.
func powCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1
	return cdf
}

// powP is the probability of a rank under a reference CDF.
func powP(cdf []float64, rank int) float64 {
	if rank == 0 {
		return cdf[0]
	}
	return cdf[rank] - cdf[rank-1]
}

// zipfPaperN is the synthetic workloads' key space (Section 9.3).
const zipfPaperN = 2_000_000

// TestZipfCDFMatchesPowBitForBit builds the whole CDF at the paper's key
// space for every exponent the repository samples with, and at a small one
// for exponents that take the integer-power and math.Pow paths, and
// compares it with the math.Pow reference bit for bit. It runs on every
// host, so the exp/log identity is checked where the floating-point code
// is compiled, not assumed.
func TestZipfCDFMatchesPowBitForBit(t *testing.T) {
	type tc struct {
		s float64
		n int
	}
	var cases []tc
	for _, s := range []float64{0.3, 0.5, 0.6, 0.8, 0.9, 1.0, 1.1, 1.5} {
		cases = append(cases, tc{s, zipfPaperN})
	}
	for _, s := range []float64{0.25, 1.7, 2, 2.5, 3, 4.2} {
		cases = append(cases, tc{s, 10_000})
	}
	for _, c := range cases {
		want := powCDF(c.s, c.n)
		got := NewZipf(rand.New(rand.NewSource(1)), c.s, c.n).cdf
		if len(got) != len(want) {
			t.Fatalf("s=%v n=%d: %d CDF entries, want %d", c.s, c.n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("s=%v n=%d: cdf[%d] = %x, math.Pow build has %x",
					c.s, c.n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestZipfUniformMatchesPowCDF checks that s = 0, which stores no CDF,
// answers P and Next exactly as a sampler over the stored CDF of ones did:
// every rank's probability bit for bit, and the rank drawn for u at every
// CDF boundary and one ulp either side of it.
func TestZipfUniformMatchesPowCDF(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 999_983, zipfPaperN} {
		want := powCDF(0, n)
		z := NewZipf(rand.New(rand.NewSource(1)), 0, n)
		if z.N() != n {
			t.Fatalf("n=%d: N() = %d", n, z.N())
		}
		for r := 0; r < n; r++ {
			if got, w := z.P(r), powP(want, r); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("n=%d: P(%d) = %v, math.Pow build has %v", n, r, got, w)
			}
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return // outside rand.Float64's range
			}
			if got, w := z.rank(u), sort.SearchFloat64s(want, u); got != w {
				t.Fatalf("n=%d: rank(%v) = %d, binary search over the CDF gives %d", n, u, got, w)
			}
		}
		check(0)
		for _, c := range want {
			check(math.Nextafter(c, 0))
			check(c)
			check(math.Nextafter(c, 2))
		}
	}
}

// BenchmarkNewZipf is the cost of one sampler over the synthetic workloads'
// two million keys at each skew the paper sweeps.
func BenchmarkNewZipf(b *testing.B) {
	for _, s := range []float64{0, 0.5, 1, 1.5} {
		b.Run(fmt.Sprintf("s=%v", s), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for b.Loop() {
				NewZipf(rng, s, zipfPaperN)
			}
		})
	}
}
