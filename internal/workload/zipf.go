// Package workload generates the paper's evaluation workloads: the
// synthetic data-heavy / compute-heavy / data+compute-heavy workloads with
// Zipf-distributed keys (Section 9.3), the entity-annotation workload
// (Section 9.1), a TPC-DS-shaped multi-join workload (Section 9.2), and a
// CloudBurst-style genome read-alignment workload (Appendix A).
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..N-1 with probability proportional to 1/(rank+1)^s.
// Unlike math/rand's Zipf it supports any exponent s >= 0 (the paper sweeps
// z in {0, 0.5, 1.0, 1.5}; z=0 is uniform), at the cost of precomputing the
// CDF for s > 0.
type Zipf struct {
	cdf []float64 // nil for s = 0
	n   int
	inv float64 // 1/n, the s = 0 CDF's step
	rng *rand.Rand
}

// NewZipf builds a sampler over n ranks with exponent s. Its CDF is the
// normalised prefix sum of math.Pow(rank+1, -s), bit for bit, but each term
// is computed the way math.Pow would compute it, without the call: s is
// split once into an integer part yi and a fraction yf in (-0.5, 0.5], and
// the term is 1 / (x^yi * exp(yf*log x)). That rounds as math.Pow does
// wherever x^yi is exact in float64 and math.Pow multiplies by it in one
// step; where either might fail (yi > 2, or yi = 2 with n > 2^26) the term
// is math.Pow's own. At s = 0 every term is 1, so no CDF is stored: the
// sampler answers from the formula the stored CDF would have held.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: zipf needs n > 0")
	}
	if s < 0 {
		panic("workload: zipf exponent must be >= 0")
	}
	z := &Zipf{n: n, inv: 1 / float64(n), rng: rng}
	if s == 0 {
		return z
	}
	// math.Pow's split of the exponent, so exp(yf*log x) is the factor it
	// computes.
	yi, yf := math.Modf(s)
	if yf > 0.5 {
		yf--
		yi++
	}
	exact := yi < 2 || (yi == 2 && n <= 1<<26)
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		x := float64(i + 1)
		var term float64
		switch {
		case !exact:
			term = math.Pow(x, -s)
		case s == 0.5:
			term = 1 / math.Sqrt(x) // math.Pow's special case for -0.5
		case yf == 0:
			term = 1 / intPow(x, yi)
		default:
			term = 1 / (intPow(x, yi) * math.Exp(yf*math.Log(x)))
		}
		sum += term
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	z.cdf = cdf
	return z
}

// intPow returns x^yi for yi in {0, 1, 2}.
func intPow(x, yi float64) float64 {
	switch yi {
	case 0:
		return 1
	case 1:
		return x
	}
	return x * x
}

// Next returns the next sampled rank (0 is the hottest).
func (z *Zipf) Next() int { return z.rank(z.rng.Float64()) }

// rank returns the smallest rank whose CDF value is >= u.
func (z *Zipf) rank(u float64) int {
	if z.cdf != nil {
		return sort.SearchFloat64s(z.cdf, u)
	}
	// Uniform: start from the nearest rank and step to the exact answer.
	i := min(int(u*float64(z.n)), z.n-1)
	for i > 0 && z.cdfAt(i-1) >= u {
		i--
	}
	for z.cdfAt(i) < u {
		i++
	}
	return i
}

// cdfAt is the CDF at rank i. At s = 0 it is what NewZipf's prefix sum of
// ones would have stored: (i+1) * (1/n), and exactly 1 at the last rank.
func (z *Zipf) cdfAt(i int) float64 {
	switch {
	case z.cdf != nil:
		return z.cdf[i]
	case i == z.n-1:
		return 1
	}
	return float64(i+1) * z.inv
}

// P returns the probability of a rank.
func (z *Zipf) P(rank int) float64 {
	if rank == 0 {
		return z.cdfAt(0)
	}
	return z.cdfAt(rank) - z.cdfAt(rank-1)
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }
