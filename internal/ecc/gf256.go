// Package ecc implements the chipkill-level ECC the evaluated memory system
// uses: a Reed-Solomon [18,16] code over GF(2^8) with one 8-bit symbol per
// x4 device per pair of burst beats. The code corrects any single-symbol
// (single-device) error and flags multi-symbol errors as detected
// uncorrectable errors (DUEs); like any distance-3 code it has a small,
// quantifiable miscorrection probability for multi-symbol errors, which is
// exactly the silent-data-corruption (SDC) channel the paper's reliability
// model charges.
package ecc

// Poly is the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) generating
// GF(2^8); the same field AES-adjacent RS codes use.
const Poly = 0x11D

// gfExp[i] = alpha^i for i in [0, 510); gfLog[alpha^i] = i.
var (
	gfExp [510]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
	gfLog[0] = -1
}

// Add returns a + b in GF(2^8) (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// Div returns a / b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

// Exp returns alpha^i for i >= 0.
func Exp(i int) byte { return gfExp[i%255] }

// Log returns the discrete log of a (the i with alpha^i == a), or -1 for 0.
func Log(a byte) int { return gfLog[a] }
