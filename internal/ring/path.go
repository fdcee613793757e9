package ring

import (
	"fmt"

	"repro/internal/fabric"
)

// Path is the fabric path type; the ring encodes a route as its ONI
// sequence and one waveguide resource ID per hop: hop j->j+1 is
// resource j, the segment leaving ring position j.
type Path = fabric.Path

// PathBetween returns the unique clockwise route from src to dst along
// the ring's single waveguide. src == dst is rejected: mapped
// communications always cross the optical layer (Definition 3 places
// communicating tasks on distinct cores).
func (r *Ring) PathBetween(src, dst int) (Path, error) {
	n := r.Size()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, fmt.Errorf("ring: path endpoints %d->%d outside [0,%d)", src, dst, n)
	}
	if src == dst {
		return Path{}, fmt.Errorf("ring: degenerate path %d->%d", src, dst)
	}
	hops := ((dst-src)%n + n) % n
	onis := make([]int, 0, hops+1)
	segIdx := make([]int, 0, hops)
	for h := 0; h <= hops; h++ {
		onis = append(onis, (src+h)%n)
		if h < hops {
			segIdx = append(segIdx, (src+h)%n)
		}
	}
	return fabric.NewPath(src, dst, onis, segIdx), nil
}

// LengthCM sums the waveguide length of a path on ring r.
func (r *Ring) LengthCM(p Path) float64 {
	var l float64
	for _, i := range p.Resources() {
		l += r.segments[i].LengthCM
	}
	return l
}

// BendCount sums the 90-degree bends along a path on ring r.
func (r *Ring) BendCount(p Path) int {
	var b int
	for _, i := range p.Resources() {
		b += r.segments[i].Bends
	}
	return b
}
