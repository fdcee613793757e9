package fabric

import (
	"math"
	"sync"
	"testing"

	"repro/internal/phys"
)

// TestCrosstalkTableMatchesGrid checks every (m, i) entry against
// Grid.CrosstalkDB, bit for bit, plus pairs outside the comb. Eight
// goroutines make the first lookups at once, so the race detector
// covers the lazy build.
func TestCrosstalkTableMatchesGrid(t *testing.T) {
	for _, nw := range []int{1, 4, 8, 12} {
		g := phys.DefaultGrid(nw)
		tab := &crosstalkTable{grid: g}
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
