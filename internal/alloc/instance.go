package alloc

import (
	"fmt"
	"sync"

	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/ring"
)

// Instance binds one wavelength-allocation problem: an application
// task graph mapped onto an optical fabric backend (the ring ONoC,
// the multi-layer crossbar, ...), with the data rate and energy
// calibration. It precomputes the per-communication fabric paths so
// the GA's evaluation loop does no repeated path construction.
//
// The mapping may be shared-core (several tasks per core): the
// evaluation then runs the core-serialized time model, and edges
// between same-core tasks become zero-cost self edges outside the
// optical layer. Injective mappings (the paper's Definition 3)
// evaluate bit-identically to the original model.
type Instance struct {
	fab fabric.Fabric
	App *graph.TaskGraph
	Map graph.Mapping
	// BitsPerCycle is B of Eq. 10 (1 in all paper experiments).
	BitsPerCycle float64
	// energy is the bit-energy calibration, fixed at construction:
	// the evaluators' optics memo keys leave it out.
	energy energy.Model

	// budget composes the detector end of the link budget on fab's
	// transit, for the evaluation kernel and Explain.
	budget   *fabric.Budget
	paths    []fabric.Path // per edge: src core -> dst core route
	srcCore  []int         // per edge
	dstCore  []int         // per edge
	selfEdge []bool        // per edge: endpoints mapped onto the same core
	// maskWords is the stride of one edge's wavelength bitmask row
	// (fabric.MaskWords of the comb size).
	maskWords int
	// confStart/confAdj hold the path-overlap relation as a CSR
	// adjacency over edge pairs: confAdj[confStart[i]:confStart[i+1]]
	// lists, in ascending order, the edges j > i whose fabric paths
	// share a waveguide resource with edge i's — the only pairs the
	// wavelength disjointness rule can reject. The conflict kernel
	// walks this sparse list, so a validity check costs
	// O(actually-overlapping pairs). Both slices are immutable
	// after construction and shared read-only by every evaluator (and,
	// through core.Config.Instance, by every campaign replicate).
	confStart []int32
	confAdj   []int32

	// evaluators recycles evaluators behind Evaluate, so concurrent
	// callers run genuinely in parallel; hot paths hold their own
	// Evaluator and never touch it.
	evaluators sync.Pool
}

// NewInstance validates the pieces and precomputes the routes. f is
// the optical backend the allocation runs on; any fabric.Fabric
// implementation works (*ring.Ring and *crossbar.Crossbar ship with
// the repository).
func NewInstance(f fabric.Fabric, app *graph.TaskGraph, m graph.Mapping, bitsPerCycle float64, em energy.Model) (*Instance, error) {
	if f == nil || app == nil {
		return nil, fmt.Errorf("alloc: nil fabric or application")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(app, f.Size()); err != nil {
		return nil, err
	}
	if bitsPerCycle <= 0 {
		return nil, fmt.Errorf("alloc: bits per cycle must be positive, got %v", bitsPerCycle)
	}
	if err := em.Validate(); err != nil {
		return nil, err
	}
	in := &Instance{
		fab:          f,
		budget:       fabric.NewBudget(f),
		App:          app,
		Map:          m,
		BitsPerCycle: bitsPerCycle,
		energy:       em,
		paths:        make([]fabric.Path, app.NumEdges()),
		srcCore:      make([]int, app.NumEdges()),
		dstCore:      make([]int, app.NumEdges()),
		selfEdge:     make([]bool, app.NumEdges()),
	}
	for ei, e := range app.Edges {
		src, dst := m[e.Src], m[e.Dst]
		in.srcCore[ei] = src
		in.dstCore[ei] = dst
		if src == dst {
			// Shared-core mapping: the transfer stays in the core's
			// memory and never enters the optical layer.
			in.paths[ei] = fabric.SelfPath(src)
			in.selfEdge[ei] = true
			continue
		}
		p, err := f.PathBetween(src, dst)
		if err != nil {
			return nil, fmt.Errorf("alloc: edge %s: %v", e.Name, err)
		}
		in.paths[ei] = p
	}
	nl := app.NumEdges()
	in.maskWords = fabric.MaskWords(f.Channels())
	in.confStart = make([]int32, nl+1)
	var adj []int32
	for i := 0; i < nl; i++ {
		in.confStart[i] = int32(len(adj))
		for j := i + 1; j < nl; j++ {
			if in.paths[i].Overlaps(in.paths[j]) {
				adj = append(adj, int32(j))
			}
		}
	}
	in.confStart[nl] = int32(len(adj))
	in.confAdj = adj
	return in, nil
}

// DefaultInstance assembles the paper's evaluation platform: the
// virtual application and its mapping on a 4x4 serpentine ring with
// Table I parameters, an nw-channel comb, B = 1 bit/cycle and the
// default energy calibration.
func DefaultInstance(nw int) (*Instance, error) {
	r, err := ring.New(ring.DefaultConfig(nw))
	if err != nil {
		return nil, err
	}
	return NewInstance(r, graph.PaperApp(), graph.PaperMapping(), 1, energy.Default())
}

// Fabric exposes the optical backend the instance was built on.
func (in *Instance) Fabric() fabric.Fabric { return in.fab }

// Channels returns NW of the underlying comb.
func (in *Instance) Channels() int { return in.fab.Channels() }

// Edges returns Nl.
func (in *Instance) Edges() int { return in.App.NumEdges() }

// Path returns the precomputed route of edge e.
func (in *Instance) Path(e int) fabric.Path { return in.paths[e] }

// SrcCore and DstCore return the mapped endpoint cores of edge e.
func (in *Instance) SrcCore(e int) int { return in.srcCore[e] }

// DstCore returns the destination core of edge e.
func (in *Instance) DstCore(e int) int { return in.dstCore[e] }

// SelfEdge reports whether edge e connects two tasks mapped onto the
// same core. Self edges need no wavelengths, emit no light and cost
// zero cycles; wavelengths a genome reserves on them are ignored.
func (in *Instance) SelfEdge(e int) bool { return in.selfEdge[e] }

// NewZeroGenome returns an all-zero chromosome of this instance's
// shape.
func (in *Instance) NewZeroGenome() Genome {
	return NewGenome(in.Edges(), in.Channels())
}
