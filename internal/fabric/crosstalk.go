package fabric

import (
	"sync"

	"repro/internal/phys"
)

// crosstalkTable holds Grid.CrosstalkDB(m, i) — Eq. 1's Lorentzian
// leak of channel i into the drop port of the ring resonant at m, in
// dB — for every (m, i) pair of the comb. A Budget keeps one for the
// final coupling term of its arrivals, which otherwise pays a Log10
// per crosstalk contributor.
//
// The table is built on its first lookup, not with the budget: budget
// construction sits on every campaign's and served instance's set-up
// path, and an instance that never walks crosstalk pays nothing. It is
// safe for concurrent use; the first lookups may come from many
// goroutines at once.
type crosstalkTable struct {
	grid phys.Grid
	once sync.Once
	db   []phys.DB
}

// DB returns t.grid.CrosstalkDB(m, i), bit for bit: every entry is the
// value that call returned. Pairs outside the comb are computed
// directly.
func (t *crosstalkTable) DB(m, i int) phys.DB {
	n := t.grid.Channels
	if uint(m) >= uint(n) || uint(i) >= uint(n) {
		return t.grid.CrosstalkDB(m, i)
	}
	t.once.Do(t.build)
	return t.db[m*n+i]
}

func (t *crosstalkTable) build() {
	n := t.grid.Channels
	db := make([]phys.DB, n*n)
	for m := 0; m < n; m++ {
		for i := 0; i < n; i++ {
			db[m*n+i] = t.grid.CrosstalkDB(m, i)
		}
	}
	t.db = db
}
