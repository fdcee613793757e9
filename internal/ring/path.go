package ring

import (
	"fmt"

	"repro/internal/fabric"
)

// Direction selects one of the ring's counter-propagating waveguides.
// The paper's platform is a single clockwise waveguide; the
// Bidirectional configuration adds the ORNoC-style counter-clockwise
// twin (Le Beux et al., the paper's reference [9]), halving worst-case
// hop counts. The two directions are physically separate waveguides:
// they never share segments, conflict or interfere — they map onto
// fabric path lanes.
type Direction int

const (
	// CW travels in increasing ring order (the paper's default).
	CW Direction = iota
	// CCW travels in decreasing ring order on the twin waveguide.
	CCW
)

// String names the direction.
func (d Direction) String() string {
	if d == CCW {
		return "ccw"
	}
	return "cw"
}

// Path is the fabric path type; the ring encodes its waveguide
// direction as the path lane (lane 0 = CW, lane 1 = CCW) and one
// waveguide resource ID per hop: CW hop j->j+1 is resource j; CCW hop
// j->j-1 is resource N+j. Resource IDs never collide across
// directions.
type Path = fabric.Path

// PathBetween returns the route from src to dst: the unique clockwise
// route on a unidirectional ring, or the hop-shorter of the two
// directions (ties clockwise) when the ring is bidirectional.
// src == dst is rejected: mapped communications always cross the
// optical layer (Definition 3 places communicating tasks on distinct
// cores).
func (r *Ring) PathBetween(src, dst int) (Path, error) {
	if !r.cfg.Bidirectional {
		return r.DirectedPath(src, dst, CW)
	}
	n := r.Size()
	cw := ((dst-src)%n + n) % n
	ccw := n - cw
	if ccw < cw {
		return r.DirectedPath(src, dst, CCW)
	}
	return r.DirectedPath(src, dst, CW)
}

// DirectedPath returns the route from src to dst along the requested
// waveguide. Requesting CCW on a unidirectional ring is an error.
func (r *Ring) DirectedPath(src, dst int, dir Direction) (Path, error) {
	n := r.Size()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, fmt.Errorf("ring: path endpoints %d->%d outside [0,%d)", src, dst, n)
	}
	if src == dst {
		return Path{}, fmt.Errorf("ring: degenerate path %d->%d", src, dst)
	}
	if dir == CCW && !r.cfg.Bidirectional {
		return Path{}, fmt.Errorf("ring: counter-clockwise waveguide not configured")
	}
	var onis, segIdx []int
	switch dir {
	case CW:
		hops := ((dst-src)%n + n) % n
		onis = make([]int, 0, hops+1)
		segIdx = make([]int, 0, hops)
		for h := 0; h <= hops; h++ {
			onis = append(onis, (src+h)%n)
			if h < hops {
				segIdx = append(segIdx, (src+h)%n)
			}
		}
	case CCW:
		hops := ((src-dst)%n + n) % n
		onis = make([]int, 0, hops+1)
		segIdx = make([]int, 0, hops)
		for h := 0; h <= hops; h++ {
			oni := ((src-h)%n + n) % n
			onis = append(onis, oni)
			if h < hops {
				segIdx = append(segIdx, n+oni)
			}
		}
	default:
		return Path{}, fmt.Errorf("ring: unknown direction %d", int(dir))
	}
	return fabric.NewPath(src, dst, int(dir), onis, segIdx), nil
}

// physSegment maps a direction-qualified resource ID to the physical
// hop geometry: the CCW hop j -> j-1 runs along the same layout trace
// as the CW hop (j-1) -> j.
func (r *Ring) physSegment(rid int) Segment {
	n := r.Size()
	if rid < n {
		return r.segments[rid]
	}
	j := rid - n
	return r.segments[((j-1)%n+n)%n]
}

// LengthCM sums the waveguide length of a path on ring r.
func (r *Ring) LengthCM(p Path) float64 {
	var l float64
	for _, i := range p.Resources() {
		l += r.physSegment(i).LengthCM
	}
	return l
}

// BendCount sums the 90-degree bends along a path on ring r.
func (r *Ring) BendCount(p Path) int {
	var b int
	for _, i := range p.Resources() {
		b += r.physSegment(i).Bends
	}
	return b
}
