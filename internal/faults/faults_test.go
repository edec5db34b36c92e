package faults

import (
	"strings"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector enabled")
	}
	for s := Site(0); s < NSites; s++ {
		if in.Roll(s) {
			t.Fatalf("nil injector fired %s", s)
		}
	}
	buf := []byte{0xaa, 0x55}
	if got := in.FlipBit(buf); got != -1 || buf[0] != 0xaa || buf[1] != 0x55 {
		t.Fatalf("nil FlipBit mutated: %d %v", got, buf)
	}
	in.NoteDRAM(7, true)
	if in.Totals() != (Totals{}) {
		t.Fatalf("nil totals %+v", in.Totals())
	}
}

func TestNewReturnsNilWhenDisabled(t *testing.T) {
	if New(Config{Seed: 3}) != nil {
		t.Fatal("zero-rate config built an injector")
	}
	var cfg Config
	cfg.Rate[MDCacheMiss] = 0.5
	if New(cfg) == nil {
		t.Fatal("non-zero rate returned nil")
	}
}

// allSites accepts every site.
var allSites = []Site{DataBitFlip, MetaBitFlip, ChunkDrop, ChunkDup, MDCacheMiss, TraceTruncate}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("bitflip:1e-6, mdmiss:0.25", 9, allSites)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Rate[DataBitFlip] != 1e-6 || cfg.Rate[MDCacheMiss] != 0.25 {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg, err := ParseSpec("", 1, allSites); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %v %+v", err, cfg)
	}
	for _, bad := range []string{"bitflip", "nosite:0.1", "bitflip:2", "bitflip:-1", "bitflip:x"} {
		if _, err := ParseSpec(bad, 1, allSites); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseSpecNamesOnlyAcceptedSites: a caller that accepts a subset
// of the sites gets errors that suggest only that subset, and a
// non-zero rate at any other site is rejected.
func TestParseSpecNamesOnlyAcceptedSites(t *testing.T) {
	accept := []Site{DataBitFlip, MDCacheMiss}
	for _, spec := range []string{"bogus:0.5", "chunkdrop:0.1"} {
		_, err := ParseSpec(spec, 1, accept)
		if err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
		if !strings.HasSuffix(err.Error(), "(have bitflip, mdmiss)") {
			t.Fatalf("spec %q: error %q does not list exactly the accepted sites", spec, err)
		}
	}
	if cfg, err := ParseSpec("chunkdrop:0,mdmiss:0.5", 1, accept); err != nil || cfg.Rate[MDCacheMiss] != 0.5 {
		t.Fatalf("a zero rate at an unaccepted site: %v %+v", err, cfg)
	}
}

func TestRollDeterministicAndCounted(t *testing.T) {
	var cfg Config
	cfg.Seed = 42
	cfg.Rate[ChunkDrop] = 0.3
	run := func() ([]bool, Totals) {
		in := New(cfg)
		var fires []bool
		for i := 0; i < 1000; i++ {
			fires = append(fires, in.Roll(ChunkDrop))
		}
		return fires, in.Totals()
	}
	a, ta := run()
	b, tb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs between identical runs", i)
		}
	}
	if ta != tb {
		t.Fatalf("totals differ: %+v vs %+v", ta, tb)
	}
	c := ta.Sites[ChunkDrop]
	if c.Opportunities != 1000 {
		t.Fatalf("opportunities %d", c.Opportunities)
	}
	if c.Injected < 200 || c.Injected > 400 {
		t.Fatalf("injected %d of 1000 at rate 0.3", c.Injected)
	}
	if ta.Injected() != c.Injected {
		t.Fatalf("Injected() %d != site tally %d", ta.Injected(), c.Injected)
	}
}

func TestZeroRateSiteConsumesNoRandomness(t *testing.T) {
	var cfg Config
	cfg.Seed = 7
	cfg.Rate[ChunkDrop] = 0.5

	in := New(cfg)
	var solo []bool
	for i := 0; i < 200; i++ {
		solo = append(solo, in.Roll(ChunkDrop))
	}
	// Interleaving rolls of a zero-rate site must not perturb the
	// enabled site's decisions.
	in = New(cfg)
	var mixed []bool
	for i := 0; i < 200; i++ {
		in.Roll(MDCacheMiss)
		mixed = append(mixed, in.Roll(ChunkDrop))
	}
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("roll %d perturbed by zero-rate site", i)
		}
	}
}

func TestPerBitRateScalesUp(t *testing.T) {
	// A 1e-4 per-bit rate on a 512-bit line is a ~5% per-write chance;
	// over 2000 writes, injections must be clearly non-zero.
	var cfg Config
	cfg.Seed = 11
	cfg.Rate[DataBitFlip] = 1e-4
	in := New(cfg)
	for i := 0; i < 2000; i++ {
		in.Roll(DataBitFlip)
	}
	inj := in.Totals().Sites[DataBitFlip].Injected
	if inj < 50 || inj > 200 {
		t.Fatalf("injected %d of 2000 at per-bit 1e-4 (expect ~100)", inj)
	}
}

func TestFlipBitMutatesOneBit(t *testing.T) {
	var cfg Config
	cfg.Rate[MetaBitFlip] = 1
	in := New(cfg)
	buf := make([]byte, 64)
	bit := in.FlipBit(buf)
	if bit < 0 || bit >= 64*8 {
		t.Fatalf("bit index %d", bit)
	}
	ones := 0
	for _, b := range buf {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("%d bits set after one flip", ones)
	}
	if buf[bit/8]&(1<<(bit%8)) == 0 {
		t.Fatal("reported bit not the flipped one")
	}
	if got := in.FlipBit(nil); got != -1 {
		t.Fatalf("empty-buffer flip returned %d", got)
	}
}

func TestTotalsString(t *testing.T) {
	var cfg Config
	cfg.Rate[MDCacheMiss] = 1
	in := New(cfg)
	in.Roll(MDCacheMiss)
	in.NoteDRAM(1, false)
	in.NoteDRAM(2, true)
	s := in.Totals().String()
	for _, want := range []string{"mdmiss 1/1", "1 reads", "1 writes"} {
		if !strings.Contains(s, want) {
			t.Fatalf("totals %q missing %q", s, want)
		}
	}
	if s := (Totals{}).String(); !strings.Contains(s, "no opportunities") {
		t.Fatalf("empty totals %q", s)
	}
}

func TestSiteString(t *testing.T) {
	if DataBitFlip.String() != "bitflip" || TraceTruncate.String() != "tracetrunc" {
		t.Fatal("site names")
	}
	if !strings.HasPrefix(Site(99).String(), "Site(") {
		t.Fatal("unknown site")
	}
}
