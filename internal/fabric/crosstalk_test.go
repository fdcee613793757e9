package fabric_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/phys"
	"repro/internal/ring"
)

// TestCrosstalkTableMatchesGrid checks every (m, i) entry against
// Grid.CrosstalkDB, bit for bit, plus pairs outside the comb. Eight
// goroutines make the first lookups at once, so the race detector
// covers the lazy build.
func TestCrosstalkTableMatchesGrid(t *testing.T) {
	for _, nw := range []int{1, 4, 8, 12} {
		g := phys.DefaultGrid(nw)
		tab := fabric.NewCrosstalkTable(g)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := -1; m <= nw; m++ {
					for i := -1; i <= nw; i++ {
						if math.Float64bits(float64(tab.DB(m, i))) != math.Float64bits(float64(g.CrosstalkDB(m, i))) {
							errs <- "mismatch"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if len(errs) > 0 {
			t.Errorf("NW %d: table differs from Grid.CrosstalkDB", nw)
		}
	}
}

// TestArrivalAlongUsesCrosstalkTable drives both backends' crosstalk
// arrivals, whose final coupling term now comes from the fabric's
// table, from eight goroutines on a fresh fabric, and checks each
// against the same budget composed with Grid.CrosstalkDB: transit to
// the receiver, the partial bank walk, then Eq. 1's leak.
func TestArrivalAlongUsesCrosstalkTable(t *testing.T) {
	for _, nw := range []int{4, 8, 12} {
		r, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		x, err := crossbar.New(crossbar.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []fabric.Fabric{r, x} {
			bank := fabric.NewBank(f.Size(), nw)
			for ch := 0; ch < nw; ch += 3 {
				bank.Set(f.Size()-1, ch, true)
			}
			p, err := f.PathBetween(0, f.Size()-1)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			bad := 0
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for detCh := 0; detCh < nw; detCh++ {
						for ch := 0; ch < nw; ch++ {
							if ch == detCh {
								continue
							}
							got, err := f.ArrivalAlongDB(p, p.Dst, ch, detCh, bank)
							want := f.TransitLossDB(p, ch, bank) +
								fabric.BankWalkDB(f.Params(), p.Dst, ch, detCh, bank) +
								f.Grid().CrosstalkDB(detCh, ch)
							if err != nil || math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
								mu.Lock()
								bad++
								mu.Unlock()
							}
						}
					}
				}()
			}
			wg.Wait()
			if bad > 0 {
				t.Errorf("%s NW %d: %d crosstalk arrivals differ from the direct budget", f.Name(), nw, bad)
			}
		}
	}
}
