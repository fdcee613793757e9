package nsga2

// objStore is a chunked float64 arena for cache-entry value rows (the
// objectives, then any aux values). Live evaluation and checkpoint
// decoding carve one row per entry out of large chunks instead of
// boxing it, so neither pays an allocation per genotype. Chunks are
// never reallocated or reused — previously carved slices stay valid
// for the owner's lifetime, which is exactly the retention contract
// cache entries already have.
type objStore struct {
	cur []float64
}

// storeChunk is the arena chunk size in float64s (128 KiB chunks):
// large enough to amortize to well under one allocation per entry,
// small enough that a mostly-unused tail chunk costs little.
const storeChunk = 16384

// alloc carves an n-float slice (len n, full capacity) from the
// current chunk, starting a fresh chunk when it would overflow.
func (s *objStore) alloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	if len(s.cur)+n > cap(s.cur) {
		c := storeChunk
		if c < n {
			c = n
		}
		s.cur = make([]float64, 0, c)
	}
	off := len(s.cur)
	s.cur = s.cur[: off+n : cap(s.cur)]
	return s.cur[off : off+n : off+n]
}
