package ecc

import (
	"testing"
	"testing/quick"

	"relaxfault/internal/dram"
	"relaxfault/internal/stats"
)

// --- GF(2^8) ----------------------------------------------------------------

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverse and associativity over random samples.
	prop := func(a, b, c byte) bool {
		if Mul(a, Mul(b, c)) != Mul(Mul(a, b), c) {
			return false
		}
		// Distributivity.
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Div(1, byte(a))); got != 1 {
			t.Fatalf("a*(1/a) = %d for a=%d", got, a)
		}
		if Div(byte(a), byte(a)) != 1 {
			t.Fatalf("a/a != 1 for a=%d", a)
		}
	}
}

func TestGFExpLog(t *testing.T) {
	for i := 0; i < 255; i++ {
		if Log(Exp(i)) != i {
			t.Fatalf("Log(Exp(%d)) = %d", i, Log(Exp(i)))
		}
	}
	if Log(0) != -1 {
		t.Error("Log(0) should be -1")
	}
	// alpha generates the full multiplicative group.
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Errorf("alpha generates %d elements, want 255", len(seen))
	}
}

func TestGFDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

// --- RS[18,16] codec ---------------------------------------------------------

func randomCodeword(rng *stats.RNG) Codeword {
	var cw Codeword
	for i := 0; i < DataSymbols; i++ {
		cw[i] = byte(rng.Uint32())
	}
	cw.Encode()
	return cw
}

func TestEncodeZeroSyndromes(t *testing.T) {
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		cw := randomCodeword(rng)
		s0, s1 := cw.Syndromes()
		if s0 != 0 || s1 != 0 {
			t.Fatalf("encoded codeword has syndromes %d,%d", s0, s1)
		}
		if st, _ := cw.Decode(); st != OK {
			t.Fatalf("clean codeword decoded as %v", st)
		}
	}
}

// TestSingleSymbolCorrection is the chipkill property: any error value at
// any single symbol position (any single device) is corrected exactly.
func TestSingleSymbolCorrection(t *testing.T) {
	rng := stats.NewRNG(2)
	for pos := 0; pos < TotalSymbols; pos++ {
		for trial := 0; trial < 200; trial++ {
			sent := randomCodeword(rng)
			recv := sent
			e := byte(rng.Intn(255)) + 1
			recv[pos] ^= e
			st, p := recv.Decode()
			if st != Corrected {
				t.Fatalf("pos %d err %#x: status %v", pos, e, st)
			}
			if p != pos {
				t.Fatalf("pos %d: corrected wrong position %d", pos, p)
			}
			if recv != sent {
				t.Fatalf("pos %d: corrected to wrong codeword", pos)
			}
		}
	}
}

// TestDoubleSymbolDetection: two-symbol errors must never be silently
// accepted as clean, and the miscorrection rate must match the analytic
// escape probability.
func TestDoubleSymbolDetection(t *testing.T) {
	rng := stats.NewRNG(3)
	const trials = 20000
	var due, miscorrected int
	for i := 0; i < trials; i++ {
		sent := randomCodeword(rng)
		recv := sent
		p1 := rng.Intn(TotalSymbols)
		p2 := (p1 + 1 + rng.Intn(TotalSymbols-1)) % TotalSymbols
		recv[p1] ^= byte(rng.Intn(255)) + 1
		recv[p2] ^= byte(rng.Intn(255)) + 1
		st, _ := recv.DecodeKnown(&sent)
		switch st {
		case DUE:
			due++
		case Miscorrected:
			miscorrected++
		case OK, Corrected:
			t.Fatalf("double error decoded as %v", st)
		}
	}
	rate := float64(miscorrected) / float64(trials)
	expect := MiscorrectionProbability()
	if rate > 3*expect || (rate == 0 && expect > 1e-3) {
		t.Errorf("miscorrection rate %.4f vs analytic %.4f", rate, expect)
	}
	if due == 0 {
		t.Error("no DUEs observed for double errors")
	}
}

// TestLineRoundTrip: EncodeLine/DecodeLine over clean lines.
func TestLineRoundTrip(t *testing.T) {
	g := dram.Default8GiBNode()
	rng := stats.NewRNG(4)
	for i := 0; i < 500; i++ {
		line := make(dram.Line, TotalSymbols)
		for d := 0; d < DataSymbols; d++ {
			line[d] = dram.SubBlock(rng.Uint32())
		}
		orig := make(dram.Line, TotalSymbols)
		if err := EncodeLine(line); err != nil {
			t.Fatal(err)
		}
		copy(orig, line)
		res, err := DecodeLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != OK {
			t.Fatalf("clean line decoded as %v", res.Status)
		}
		for d := range line {
			if line[d] != orig[d] {
				t.Fatalf("device %d changed by clean decode", d)
			}
		}
	}
	_ = g
}

// TestLineSingleDeviceCorrection: corrupting one device's whole 4-byte
// sub-block (as a stuck-at fault does) is corrected in all 4 codewords.
func TestLineSingleDeviceCorrection(t *testing.T) {
	rng := stats.NewRNG(5)
	for dev := 0; dev < TotalSymbols; dev++ {
		line := make(dram.Line, TotalSymbols)
		for d := 0; d < DataSymbols; d++ {
			line[d] = dram.SubBlock(rng.Uint32())
		}
		if err := EncodeLine(line); err != nil {
			t.Fatal(err)
		}
		want := make(dram.Line, TotalSymbols)
		copy(want, line)
		line[dev] ^= 0xFFFFFFFF
		res, err := DecodeLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Corrected {
			t.Fatalf("dev %d: status %v", dev, res.Status)
		}
		if len(res.CorrectedDevices) != 1 || res.CorrectedDevices[0] != dev {
			t.Fatalf("dev %d: corrected devices %v", dev, res.CorrectedDevices)
		}
		for d := range line {
			if line[d] != want[d] {
				t.Fatalf("dev %d: line not restored", dev)
			}
		}
	}
}

// TestLineTwoDeviceDUE: two corrupted devices in the same line are flagged.
func TestLineTwoDeviceDUE(t *testing.T) {
	line := make(dram.Line, TotalSymbols)
	for d := 0; d < DataSymbols; d++ {
		line[d] = dram.SubBlock(0x01020304 * uint32(d+1))
	}
	if err := EncodeLine(line); err != nil {
		t.Fatal(err)
	}
	line[2] ^= 0xDEADBEEF
	line[9] ^= 0x01010101
	res, err := DecodeLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != DUE {
		t.Fatalf("status %v, want DUE", res.Status)
	}
	if res.DUECodewords == 0 {
		t.Error("no DUE codewords counted")
	}
}

func TestLineLengthValidation(t *testing.T) {
	if err := EncodeLine(make(dram.Line, 5)); err == nil {
		t.Error("EncodeLine accepted short line")
	}
	if _, err := DecodeLine(make(dram.Line, 5)); err == nil {
		t.Error("DecodeLine accepted short line")
	}
}

func TestMiscorrectionProbabilityValue(t *testing.T) {
	p := MiscorrectionProbability()
	if p < 0.06 || p > 0.08 {
		t.Errorf("analytic escape rate %.4f outside [0.06, 0.08] for RS[18,16]", p)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{OK: "OK", Corrected: "Corrected", DUE: "DUE", Miscorrected: "Miscorrected"} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q", int(st), st.String())
		}
	}
}
