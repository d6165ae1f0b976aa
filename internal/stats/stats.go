// Package stats provides the small statistical toolkit used throughout the
// remote-peering reproduction: empirical CDFs, percentiles (including the
// 95th-percentile transit-billing rule), histograms over arbitrary bin
// edges, least-squares exponential-decay fitting, and deterministic RNG
// splitting so that every stochastic component of the simulation derives
// from a single top-level seed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies and sorts the input, so the
// caller's slice is left untouched.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// percentileSorted computes a percentile assuming xs is already sorted.
func percentileSorted(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// P95 implements the transit-billing rule from Section 2.1 of the paper:
// traffic is metered in 5-minute intervals and the bill is computed from the
// 95th percentile of the interval rates.
func P95(rates []float64) (float64, error) {
	return Percentile(rates, 95)
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	mean, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs)), nil
}

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// CDF is an empirical cumulative distribution function over a sample set.
// The zero value is not usable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns the fraction of samples ≤ x.
func (c *CDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return percentileSorted(c.sorted, q*100)
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Points materialises the CDF as (x, F(x)) pairs at every distinct sample,
// suitable for plotting Figure 2 of the paper.
func (c *CDF) Points() (xs, fs []float64) {
	n := len(c.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && c.sorted[i+1] == c.sorted[i] {
			continue // collapse duplicates; keep the last occurrence
		}
		xs = append(xs, c.sorted[i])
		fs = append(fs, float64(i+1)/float64(n))
	}
	return xs, fs
}

// Histogram counts samples into bins delimited by edges. A sample x falls
// into bin i when edges[i] ≤ x < edges[i+1]; samples ≥ the final edge fall
// into the overflow bin, which is the last count. Given k edges the result
// has k counts: k−1 interior bins plus overflow. Samples below edges[0] are
// ignored (the paper's RTT bins start at 0 ms, so this does not occur in
// practice).
type Histogram struct {
	Edges  []float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram over the given strictly increasing edges.
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, errors.New("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges not increasing at %d", i)
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int, len(edges)),
	}, nil
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	if x < h.Edges[0] {
		return
	}
	idx := sort.SearchFloat64s(h.Edges, math.Nextafter(x, math.Inf(1))) - 1
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of samples recorded (excluding underflow).
func (h *Histogram) Total() int { return h.total }

// Fractions returns each bin count as a fraction of the total. If no
// samples were recorded, all fractions are zero.
func (h *Histogram) Fractions() []float64 {
	fr := make([]float64, len(h.Counts))
	if h.total == 0 {
		return fr
	}
	for i, c := range h.Counts {
		fr[i] = float64(c) / float64(h.total)
	}
	return fr
}

// ExpFit holds the result of fitting y = a·e^{−b·x}.
type ExpFit struct {
	A float64 // amplitude
	B float64 // decay rate (the paper's parameter b)
	// R2 is the coefficient of determination of the fit in log space.
	R2 float64
}

// FitExpDecay fits y = a·e^{−b·x} by linear least squares on ln(y).
// Points with y ≤ 0 are skipped; at least two positive points are needed.
// This is the operation Section 5.1 performs when generalising the RedIRIS
// offload decay into the parameter b of equation 3.
func FitExpDecay(xs, ys []float64) (ExpFit, error) {
	if len(xs) != len(ys) {
		return ExpFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if ys[i] <= 0 {
			continue
		}
		ly := math.Log(ys[i])
		sx += xs[i]
		sy += ly
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ly
		n++
	}
	if n < 2 {
		return ExpFit{}, errors.New("stats: need at least two positive points for exponential fit")
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return ExpFit{}, errors.New("stats: degenerate x values for exponential fit")
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	fit := ExpFit{A: math.Exp(intercept), B: -slope}

	// R² in log space.
	meanY := sy / fn
	var ssTot, ssRes float64
	for i := range xs {
		if ys[i] <= 0 {
			continue
		}
		ly := math.Log(ys[i])
		pred := intercept + slope*xs[i]
		ssTot += (ly - meanY) * (ly - meanY)
		ssRes += (ly - pred) * (ly - pred)
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Eval returns a·e^{−b·x} for the fitted parameters.
func (f ExpFit) Eval(x float64) float64 { return f.A * math.Exp(-f.B*x) }

// Source is a deterministic RNG handle. Every stochastic component of the
// reproduction receives one, derived from a single top-level seed, so that
// the whole pipeline is reproducible bit-for-bit.
//
// The generator materialises lazily, on the first draw: a large share of
// Sources exist only as namespaces — split to derive labelled children,
// never drawn from. A drawn Source shares the cached seeded state of its
// seed and takes a private copy only past its 273rd draw (see
// rngsource.go), so a lightly drawn Source costs a few small objects
// rather than a 4.8 KB state. Both are invisible to determinism: the seed
// fully determines the stream whenever (and whether) it is first needed.
type Source struct {
	rng       *rand.Rand
	seed      int64
	splitSeed uint64
}

// NewSource creates a Source from a seed.
func NewSource(seed int64) *Source {
	return &Source{
		seed:      seed,
		splitSeed: uint64(seed)*2862933555777941757 + 3037000493,
	}
}

// r returns the underlying generator, materialising it on first use.
func (s *Source) r() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(newRandSource(s.seed))
	}
	return s.rng
}

// Split derives an independent child Source labelled by name. The same
// parent seed and label always yield the same child stream, regardless of
// how many values the parent has consumed; this keeps subsystems decoupled.
func (s *Source) Split(label string) *Source {
	// FNV-1a over the label, mixed with a fixed odd constant; cheap and
	// deterministic. Collisions across distinct labels are acceptable for
	// simulation purposes but practically absent for our label set.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return &Source{
		seed:      int64(h ^ s.splitSeed),
		splitSeed: h*2862933555777941757 + s.splitSeed,
	}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r().Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.r().Intn(n) }

// Int63n returns a uniform int64 in [0,n).
func (s *Source) Int63n(n int64) int64 { return s.r().Int63n(n) }

// NormFloat64 returns a standard normal deviate.
func (s *Source) NormFloat64() float64 { return s.r().NormFloat64() }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Source) ExpFloat64() float64 { return s.r().ExpFloat64() }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r().Shuffle(n, swap) }

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Heavy-tailed traffic contributions in the netflow generator use this.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r().Float64()
	for u == 0 {
		u = s.r().Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r().NormFloat64())
}
