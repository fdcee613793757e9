package alloc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGenomeBasics(t *testing.T) {
	g := NewGenome(6, 4)
	if g.Edges() != 6 || g.Channels() != 4 || g.Len() != 24 {
		t.Fatalf("shape = %d/%d/%d, want 6/4/24", g.Edges(), g.Channels(), g.Len())
	}
	if g.Get(2, 3) {
		t.Error("new genome must be all zero")
	}
	g.Set(2, 3, true)
	if !g.Get(2, 3) {
		t.Error("Set(true) not visible")
	}
	if g.Get(2, 2) || g.Get(3, 3) {
		t.Error("Set leaked to neighbours")
	}
	g.Set(2, 3, false)
	if g.Get(2, 3) {
		t.Error("Set(false) not visible")
	}
}

func TestGenomePaperExample(t *testing.T) {
	// Section III-D: chromosome [1000/0001/0001/0001/1000/1000] for
	// 6 communications over 4 wavelengths; c0 = [1000] allocates
	// lambda 1 (channel 0).
	g, err := ParseGenome("1000/0001/0001/0001/1000/1000", 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ChannelSet(0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("c0 channels = %v, want [0]", got)
	}
	if got := g.ChannelSet(1); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("c1 channels = %v, want [3]", got)
	}
	if got := g.CountsInto(make([]int, g.Edges())); !reflect.DeepEqual(got, []int{1, 1, 1, 1, 1, 1}) {
		t.Errorf("counts = %v, want all ones", got)
	}
	if g.String() != "1000/0001/0001/0001/1000/1000" {
		t.Errorf("String = %q", g.String())
	}
}

func TestParseGenomeTolerant(t *testing.T) {
	a, err := ParseGenome("10 00/01\t10", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseGenome("10000110", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("whitespace handling broke parse: %q vs %q", a, b)
	}
}

func TestParseGenomeErrors(t *testing.T) {
	if _, err := ParseGenome("10/01", 2, 4); err == nil {
		t.Error("short genome must fail")
	}
	if _, err := ParseGenome("10x0", 1, 4); err == nil {
		t.Error("bad gene must fail")
	}
}

func TestGenomeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGenome(rng, 5, 8, 0.4)
		back, err := ParseGenome(g.String(), 5, 8)
		if err != nil {
			return false
		}
		return back.Key() == g.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenomeCloneIndependent(t *testing.T) {
	g := NewGenome(2, 2)
	c := g.Clone()
	c.Set(0, 0, true)
	if g.Get(0, 0) {
		t.Error("clone shares storage")
	}
}

func TestFromBits(t *testing.T) {
	bits := []byte{1, 0, 0, 1}
	g, err := FromBits(bits, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Get(0, 0) || !g.Get(1, 1) || g.Get(0, 1) {
		t.Error("FromBits mis-shaped")
	}
	if _, err := FromBits(bits, 2, 3); err == nil {
		t.Error("shape mismatch must fail")
	}
	// FromBits wraps without copying: operator mutations reach the genome.
	bits[1] = 1
	if !g.Get(0, 1) {
		t.Error("FromBits must alias the slice")
	}
}

func TestFromSets(t *testing.T) {
	g, err := FromSets([][]int{{0, 2}, {1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Get(0, 0) || !g.Get(0, 2) || !g.Get(1, 1) {
		t.Error("FromSets wiring wrong")
	}
	if _, err := FromSets([][]int{{4}}, 4); err == nil {
		t.Error("out-of-range channel must fail")
	}
	if _, err := FromSets([][]int{{1, 1}}, 4); err == nil {
		t.Error("duplicate channel must fail")
	}
}

func TestKeyDistinguishesGenomes(t *testing.T) {
	a := NewGenome(2, 2)
	b := NewGenome(2, 2)
	if a.Key() != b.Key() {
		t.Error("identical genomes must share a key")
	}
	b.Set(1, 1, true)
	if a.Key() == b.Key() {
		t.Error("different genomes must differ in key")
	}
}
