package datagen

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/rng"
)

func TestFillLineDeterministic(t *testing.T) {
	for k := Kind(0); k < NKinds; k++ {
		a := Line(rng.New(42), k)
		b := Line(rng.New(42), k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: non-deterministic at byte %d", k, i)
			}
		}
	}
}

func TestZeroKind(t *testing.T) {
	l := Line(rng.New(1), Zero)
	if !compress.IsZeroLine(l) {
		t.Fatal("Zero kind produced non-zero line")
	}
}

func TestKindString(t *testing.T) {
	if Seq.String() != "seq" || Random.String() != "random" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("out-of-range kind name wrong")
	}
}

// TestCompressibilityOrdering pins the qualitative behaviour the
// workload calibration relies on: under BPC with Compresso bins,
// zero < seq <= repeated < smallint <= smoothfloat < text/random.
func TestCompressibilityOrdering(t *testing.T) {
	r := rng.New(7)
	bpc := compress.BPC{}
	avgBin := func(k Kind) float64 {
		total := 0
		const n = 200
		for i := 0; i < n; i++ {
			total += compress.CompressoBins.Fit(compress.SizeOnly(bpc, Line(r, k)))
		}
		return float64(total) / n
	}
	bins := map[Kind]float64{}
	for k := Kind(0); k < NKinds; k++ {
		bins[k] = avgBin(k)
		t.Logf("%-12v avg binned size %.1f", k, bins[k])
	}
	if bins[Zero] != 0 {
		t.Errorf("zero lines binned to %.1f", bins[Zero])
	}
	if bins[Seq] > 8 {
		t.Errorf("seq lines binned to %.1f, want <= 8", bins[Seq])
	}
	// 64-bit repeats cost BPC ~32 B (alternating deltas) while 32-bit
	// repeats collapse to 8 B, so the average sits between the two.
	if bins[Repeated] > 32 {
		t.Errorf("repeated lines binned to %.1f, want <= 32", bins[Repeated])
	}
	if bins[SmallInt] > 40 {
		t.Errorf("smallint lines binned to %.1f, want <= 40", bins[SmallInt])
	}
	if bins[Random] < 60 {
		t.Errorf("random lines binned to %.1f, want ~64", bins[Random])
	}
	if bins[Text] < 48 {
		t.Errorf("text lines binned to %.1f, want nearly incompressible", bins[Text])
	}
	if bins[SmallInt] <= bins[Seq] {
		t.Errorf("smallint (%.1f) should compress worse than seq (%.1f)", bins[SmallInt], bins[Seq])
	}
}

// TestBDIVsBPCOnPointers pins the codec differentiation: BDI must beat
// BPC on pointer lines (8-byte bases), while BPC must beat BDI on
// smooth float arrays.
func TestBDIVsBPCOnPointers(t *testing.T) {
	r := rng.New(11)
	var bdiPtr, bpcPtr, bdiFlt, bpcFlt int
	const n = 300
	for i := 0; i < n; i++ {
		p := Line(r, Pointer)
		bdiPtr += compress.SizeOnly(compress.BDI{}, p)
		bpcPtr += compress.SizeOnly(compress.BPC{}, p)
		f := Line(r, SmoothFloat)
		bdiFlt += compress.SizeOnly(compress.BDI{}, f)
		bpcFlt += compress.SizeOnly(compress.BPC{}, f)
	}
	if bdiPtr >= bpcPtr {
		t.Errorf("pointers: BDI %d >= BPC %d; BDI should win", bdiPtr/n, bpcPtr/n)
	}
	if bpcFlt >= bdiFlt {
		t.Errorf("floats: BPC %d >= BDI %d; BPC should win", bpcFlt/n, bdiFlt/n)
	}
}

func TestMixPick(t *testing.T) {
	var m Mix
	m[Zero] = 1
	m[Random] = 3
	r := rng.New(5)
	counts := map[Kind]int{}
	for i := 0; i < 4000; i++ {
		counts[m.Pick(r)]++
	}
	if counts[Zero]+counts[Random] != 4000 {
		t.Fatalf("picked kinds outside mix: %v", counts)
	}
	frac := float64(counts[Random]) / 4000
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("Random picked %.2f, want ~0.75", frac)
	}
}

func TestMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty mix did not panic")
		}
	}()
	var m Mix
	m.Pick(rng.New(1))
}

func TestMixNormalized(t *testing.T) {
	var m Mix
	m[Seq] = 2
	m[Text] = 6
	n := m.Normalized()
	if n[Seq] != 0.25 || n[Text] != 0.75 {
		t.Fatalf("Normalized = %v", n)
	}
	var z Mix
	if z.Normalized() != z {
		t.Fatal("normalizing zero mix changed it")
	}
}

// pageLines generates one page with GeneratePageInto and returns its
// lines.
func pageLines(r *rng.Rand, k Kind, noise float64, noiseMix Mix) [][]byte {
	buf := make([]byte, LinesPerPage*compress.LineSize)
	GeneratePageInto(r, k, noise, noiseMix, buf)
	lines := make([][]byte, LinesPerPage)
	for i := range lines {
		lines[i] = buf[i*compress.LineSize : (i+1)*compress.LineSize]
	}
	return lines
}

func TestGeneratePage(t *testing.T) {
	r := rng.New(9)
	var noise Mix
	noise[Random] = 1
	zeros := 0
	for _, l := range pageLines(r, Zero, 0.25, noise) {
		if compress.IsZeroLine(l) {
			zeros++
		}
	}
	if zeros < 36 || zeros > 62 {
		t.Errorf("zero-dominated page with 25%% noise has %d/64 zero lines", zeros)
	}
}

func TestGeneratePageNoNoise(t *testing.T) {
	for i, l := range pageLines(rng.New(2), Zero, 0, Mix{}) {
		if !compress.IsZeroLine(l) {
			t.Fatalf("line %d not zero despite 0 noise", i)
		}
	}
}

func TestPerturbPreservesCompressibility(t *testing.T) {
	r := rng.New(13)
	grew, trials := 0, 200
	for i := 0; i < trials; i++ {
		line := Line(r, Seq)
		before := compress.CompressoBins.Fit(compress.SizeOnly(compress.BPC{}, line))
		Perturb(r, line)
		after := compress.CompressoBins.Fit(compress.SizeOnly(compress.BPC{}, line))
		if after > before {
			grew++
		}
	}
	// Perturbation occasionally bumps a line to the next bin, but it
	// must be the exception: it models same-pattern stores.
	if grew > trials/3 {
		t.Errorf("Perturb grew the binned size in %d/%d trials", grew, trials)
	}
}

func TestFillLinePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	FillLine(rng.New(1), Zero, make([]byte, 8))
}

func TestAllKindsRoundTripAllCodecs(t *testing.T) {
	r := rng.New(21)
	codecs := []compress.Codec{compress.BPC{}, compress.BDI{}, compress.FPC{}}
	for k := Kind(0); k < NKinds; k++ {
		for trial := 0; trial < 50; trial++ {
			line := Line(r, k)
			for _, c := range codecs {
				var comp, out [compress.LineSize]byte
				n := c.Compress(comp[:], line)
				if err := c.Decompress(out[:], comp[:n]); err != nil {
					t.Fatalf("%v/%s: %v", k, c.Name(), err)
				}
				for i := range line {
					if out[i] != line[i] {
						t.Fatalf("%v/%s: round-trip mismatch", k, c.Name())
					}
				}
			}
		}
	}
}
