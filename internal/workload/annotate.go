package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"joinopt/internal/store"
)

// Annotate models the entity-annotation workload of Section 9.1: documents
// contain "spots" (token mentions); each spot joins with a stored
// classification model indexed by token and runs a classifier UDF.
//
// The paper's corpus (ClueWeb09, 35k documents, ~4.5M spots) and model store
// (28.7 GB of logistic-regression models, largest 284.7 MB) are proprietary
// in aggregate; this generator reproduces their published statistics:
//
//   - token frequencies are Zipf-distributed (natural-language tokens),
//   - model sizes follow a power law capped at MaxModelBytes, calibrated so
//     the total is ~TotalModelBytes,
//   - classification cost grows with model size (the paper's CSAW
//     comparison explicitly exploits cost imbalance across models).
type Annotate struct {
	Tokens int // vocabulary size (distinct stored models)
	Spots  int // number of spot occurrences to process
	Skew   float64
	Seed   int64

	TotalModelBytes int64
	MaxModelBytes   int64
	ContextBytes    int64 // s_p: token context shipped with each spot
	ResultBytes     int64 // s_cv: annotation result

	// Classification cost = BaseCost + HotCost/(rank+1)^CostExp +
	// modelBytes/CostBps. The frequency-correlated term models ambiguous
	// common mentions (many candidate entities); the size term models
	// model evaluation. Gupta et al. [12] treat token frequency and
	// classification cost as two separate skew dimensions, so model SIZE
	// is deliberately decorrelated from frequency (see ModelBytes).
	BaseCost float64
	HotCost  float64
	CostExp  float64
	CostBps  float64

	sizeExp float64
}

// NewAnnotate returns the default configuration matching the paper's
// reported aggregates.
func NewAnnotate(spots int, seed int64) Annotate {
	return Annotate{
		Tokens:          200_000,
		Spots:           spots,
		Skew:            1.0,
		Seed:            seed,
		TotalModelBytes: 28_700 << 20, // 28.7 GB
		MaxModelBytes:   284_700 << 10,
		ContextBytes:    1 << 10,
		ResultBytes:     256,
		BaseCost:        2e-3,
		HotCost:         80e-3,
		CostExp:         0.85,
		CostBps:         2e9,
		sizeExp:         0.75,
	}
}

// sizeRank maps a frequency rank to an independent size rank via a fixed
// multiplicative-hash permutation, decorrelating model size from token
// frequency. The additive offset keeps the head of the frequency
// distribution away from the extreme model sizes: a hot token with a
// hundreds-of-MB model would make per-spot fetching (and hence the paper's
// FC/NO baselines) astronomically expensive, which is not what the paper
// measured.
func (a Annotate) sizeRank(rank int) int {
	return int((uint64(rank)*2654435761 + uint64(a.Tokens)/2) % uint64(a.Tokens))
}

// ModelBytes returns the stored model size for a token rank (0 = most
// frequent). Sizes follow a power law over an independent permutation of
// ranks: the largest model (284.7 MB) is not necessarily the hottest token.
func (a Annotate) ModelBytes(rank int) int64 {
	sz := float64(a.MaxModelBytes) / math.Pow(float64(a.sizeRank(rank)+1), a.sizeExp)
	if sz < 64 {
		sz = 64 // "the smallest is just a few bytes"
	}
	return int64(sz)
}

// ClassifyCost returns the UDF time for a token rank: frequent tokens are
// more ambiguous (more candidate entities to score), and larger models take
// longer to evaluate.
func (a Annotate) ClassifyCost(rank int) float64 {
	return a.BaseCost + a.HotCost/math.Pow(float64(rank+1), a.CostExp) +
		float64(a.ModelBytes(rank))/a.CostBps
}

// TokenKey returns the stored key for a token rank.
func (a Annotate) TokenKey(rank int) string { return fmt.Sprintf("tok%06d", rank) }

// rankOf inverts TokenKey; the catalog calls it on every row lookup, so it
// parses the digits directly instead of through fmt's scanner.
func rankOf(key string) int {
	r, _ := strconv.Atoi(strings.TrimPrefix(key, "tok"))
	return r
}

// Catalog returns per-token model metadata.
func (a Annotate) Catalog() store.Catalog {
	return store.CatalogFunc(func(key string) store.RowMeta {
		r := rankOf(key)
		return store.RowMeta{
			ValueSize:    a.ModelBytes(r),
			ComputedSize: a.ResultBytes,
			ComputeCost:  a.ClassifyCost(r),
		}
	})
}

// Source returns the spot stream.
func (a Annotate) Source() Source {
	rng := rand.New(rand.NewSource(a.Seed))
	return &annotateSource{a: a, zipf: NewZipf(rng, a.Skew, a.Tokens)}
}

type annotateSource struct {
	a       Annotate
	zipf    *Zipf
	emitted int
}

// Next implements Source.
func (s *annotateSource) Next() (Tuple, bool) {
	if s.emitted >= s.a.Spots {
		return Tuple{}, false
	}
	s.emitted++
	rank := s.zipf.Next()
	return Tuple{
		Keys:      []string{s.a.TokenKey(rank)},
		ParamSize: s.a.ContextBytes,
	}, true
}

// SpotFreqs returns the exact expected token frequencies for Spots draws,
// used by the statistics-based baselines (CSAW and FlowJoinLB are given
// full-input statistics; Section 9.1.1 treats FlowJoinLB as a lower bound
// because of that).
func (a Annotate) SpotFreqs() []float64 {
	rng := rand.New(rand.NewSource(a.Seed))
	z := NewZipf(rng, a.Skew, a.Tokens)
	out := make([]float64, a.Tokens)
	for r := range out {
		out[r] = z.P(r) * float64(a.Spots)
	}
	return out
}
