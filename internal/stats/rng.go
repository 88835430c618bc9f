// Package stats provides the deterministic random-number generation and
// statistical accumulation primitives used by the RelaxFault simulators.
//
// Every simulator in this repository is seeded explicitly so that each
// experiment is exactly reproducible. The generator is xoshiro256**, seeded
// through splitmix64 as its authors recommend, which gives high-quality
// streams that are cheap to fork: Monte Carlo code creates one child RNG per
// node or per trial so results do not depend on scheduling order.
package stats

import "math"

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with NewRNG.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output. It is
// used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given 64-bit seed.
func NewRNG(seed uint64) *RNG {
	sm := seed
	r := &RNG{}
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent child generator. The child stream is a
// deterministic function of the parent state and the supplied stream id, and
// forking does not perturb the parent, so sub-simulations may be evaluated in
// any order (or in parallel) without changing results.
func (r *RNG) Fork(stream uint64) *RNG {
	c := &RNG{}
	r.Forker().Substream(stream, c)
	return c
}

// Forker amortises Fork: it captures the parent-state mixing base once, so
// per-stream seeding (Substream) touches only the child and allocates
// nothing. The batched Monte Carlo kernels arm one Forker per batch and
// reseed a reused child RNG per trial; the produced streams are bit-identical
// to Fork's for every stream id.
type Forker struct {
	base uint64
}

// Forker captures r's current state for substream derivation. Like Fork, it
// does not perturb r.
func (r *RNG) Forker() Forker {
	return Forker{base: r.s0 ^ rotl(r.s3, 17)}
}

// Substream seeds c in place with the stream that Fork(stream) would return
// (bit-identical state), without allocating.
func (f Forker) Substream(stream uint64, c *RNG) {
	sm := f.base ^ (stream * 0xd1342543de82ef95)
	c.s0 = splitmix64(&sm)
	c.s1 = splitmix64(&sm)
	c.s2 = splitmix64(&sm)
	c.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state.
	if c.s0|c.s1|c.s2|c.s3 == 0 {
		c.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		lo, hi := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b, returning (lo, hi).
func mul64(a, b uint64) (lo, hi uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo0 := t & mask
	c := t >> 32
	t = a1*b0 + c
	m0 := t & mask
	c = t >> 32
	t = a0*b1 + m0
	m1 := t >> 32
	hi = a1*b1 + c + m1
	lo = (t << 32) | lo0
	return lo, hi
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means it uses the PTRS rejection
// sampler (Hörmann), which is O(1).
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(mean)
	}
}

// poissonPTRS implements the transformed-rejection sampler of Hörmann for
// Poisson means >= 10.
func (r *RNG) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// Lognormal returns a lognormal variate parameterised by the *arithmetic*
// mean and variance of the distribution itself (not of the underlying
// normal). This matches the paper's device-variation model, which draws each
// device's FIT rate from a lognormal with mean equal to the published rate
// and variance equal to a fraction of that mean.
func (r *RNG) Lognormal(mean, variance float64) float64 {
	if mean <= 0 {
		return 0
	}
	if variance <= 0 {
		return mean
	}
	// If X ~ LogN(mu, sigma^2): E[X] = exp(mu + sigma^2/2),
	// Var[X] = (exp(sigma^2)-1) exp(2mu + sigma^2).
	sigma2 := math.Log(1 + variance/(mean*mean))
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}
