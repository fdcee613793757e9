package nsga2

// arena is a chunked slice arena for the engine's per-genotype data:
// cache-entry value rows (the objectives, then any aux values) and
// interned genome keys. Live evaluation and checkpoint decoding carve
// one slice per entry out of large chunks instead of boxing it, so
// neither pays an allocation per genotype. Chunks are never
// reallocated or reused — previously carved slices stay valid for the
// owner's lifetime, which is exactly the retention contract cache
// entries already have.
type arena[T any] struct {
	cur []T
	// next is the length of the next chunk; every chunk after the
	// first is chunk long.
	next, chunk int
}

// newArena returns an arena whose first chunk holds want elements,
// capped at chunk: an engine sizes it from its run's bound, so a small
// run does not pay for a mostly empty full-size chunk.
func newArena[T any](want, chunk int) arena[T] {
	return arena[T]{next: min(want, chunk), chunk: chunk}
}

// Chunk lengths: 128 KiB of float64s for value rows, 64 KiB of key
// bytes — large enough to amortize to well under one allocation per
// entry, small enough that a mostly-unused tail chunk costs little.
const (
	storeChunk = 16384
	keyChunk   = 65536
)

// alloc carves an n-element slice (len n, full capacity) from the
// current chunk, starting a fresh chunk when it would overflow.
func (s *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.cur)+n > cap(s.cur) {
		s.cur = make([]T, 0, max(s.next, n))
		s.next = s.chunk
	}
	off := len(s.cur)
	s.cur = s.cur[: off+n : cap(s.cur)]
	return s.cur[off : off+n : off+n]
}
