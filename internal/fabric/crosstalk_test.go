package fabric_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/ring"
)

// TestArrivalAlongUsesCrosstalkTable drives a fresh Budget's crosstalk
// arrivals, whose final coupling term comes from its table, on both
// backends from eight goroutines, and checks each against the same
// budget composed with Grid.CrosstalkDB: transit to the receiver, the
// partial bank walk, then Eq. 1's leak.
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
		for name, f := range map[string]fabric.Fabric{"ring": r, "crossbar": x} {
			bud := fabric.NewBudget(f)
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
							got, err := bud.ArrivalAlongDB(p, p.Dst, ch, detCh, bank)
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
				t.Errorf("%s NW %d: %d crosstalk arrivals differ from the direct budget", name, nw, bad)
			}
		}
	}
}
