package fabric

import "fmt"

// Path is a directed route through one fabric from a source ONI to a
// destination ONI. Paths are immutable values built by a backend's
// PathBetween (or SelfPath) and consumed by the allocation layer's
// conflict and optics machinery; the backend encodes its topology
// entirely in the ONI sequence and the resource IDs. Every path of a
// fabric shares one optical medium: two paths interact exactly when
// their resource runs intersect (Overlaps) or one crosses the other's
// receiver bank (Through).
type Path struct {
	Src, Dst int
	// onis is the visited ONI sequence, source first, destination
	// last.
	onis []int
	// resources holds one shared-medium resource ID per hop, in
	// travel order.
	resources []int
}

// NewPath assembles a path from a backend's route construction. onis
// must start at src and end at dst; resources holds one ID per hop
// (len(onis)-1 of them for a linear route). The slices are retained,
// not copied: backends must not mutate them afterwards.
func NewPath(src, dst int, onis, resources []int) Path {
	return Path{Src: src, Dst: dst, onis: onis, resources: resources}
}

// SelfPath returns the degenerate zero-hop path of a communication
// whose endpoint cores coincide — the shared-core mapping case where
// producer and consumer run on the same core and the transfer never
// enters the optical layer. It traverses no resource, overlaps nothing
// and crosses no receiver bank. It is backend-independent.
func SelfPath(oni int) Path {
	return Path{Src: oni, Dst: oni, onis: []int{oni}}
}

// Hops returns the number of traversed resources.
func (p Path) Hops() int { return len(p.resources) }

// Resources returns the traversed shared-medium resource IDs in travel
// order. The returned slice is shared; callers must not mutate it.
func (p Path) Resources() []int { return p.resources }

// ONIs returns the visited ONI sequence, source first. The returned
// slice is shared; callers must not mutate it.
func (p Path) ONIs() []int { return p.onis }

// Overlaps reports whether two paths share at least one resource.
// Overlapping simultaneous transmissions must use disjoint wavelength
// sets (the validity rule) and mutually inject inter-communication
// crosstalk.
func (p Path) Overlaps(q Path) bool {
	// Paths carry few resources, so the quadratic scan beats a hash
	// set at these sizes and never allocates — this sits on the
	// evaluation kernel's validity path.
	for _, i := range p.resources {
		for _, j := range q.resources {
			if i == j {
				return true
			}
		}
	}
	return false
}

// Interior returns the ONIs strictly between source and destination,
// in travel order. Signals pass the full receiver MR bank of each
// interior ONI.
func (p Path) Interior() []int {
	if len(p.onis) <= 2 {
		return nil
	}
	return p.onis[1 : len(p.onis)-1]
}

// Through reports whether the path's optical signal crosses the
// receiver MR bank of ONI o: true when o is an interior ONI or the
// destination. The source's own bank is not crossed because the ONI
// transmitter injects downstream of its receiver.
func (p Path) Through(o int) bool {
	for _, oni := range p.onis[1:] {
		if oni == o {
			return true
		}
	}
	return false
}

// Prefix returns the sub-path from the source up to ONI det, which
// must lie on the path past the source. Noise analyses use it to walk
// an interferer's light only as far as the victim's receiver. The
// prefix to p.Dst is p itself: a backend whose resources do not follow
// its ONIs one per hop (the crossbar's) must not lose any to a cut.
func (p Path) Prefix(det int) (Path, error) {
	if det == p.Dst {
		return p, nil
	}
	for i, oni := range p.onis {
		if oni != det || i == 0 {
			continue
		}
		return Path{
			Src:       p.Src,
			Dst:       det,
			onis:      p.onis[:i+1],
			resources: p.resources[:i],
		}, nil
	}
	return Path{}, fmt.Errorf("fabric: ONI %d not downstream on path %d->%d", det, p.Src, p.Dst)
}
