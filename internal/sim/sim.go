// Package sim is a cycle-resolution, event-driven simulator of the
// mapped ring WDM ONoC. It executes the task graph on the cores and
// serializes every communication bit-by-bit over its reserved
// wavelengths, reserving waveguide segments per (segment, channel),
// receiver micro-rings per (ONI, channel) and — since shared-core
// mappings became first-class — core occupancy per core as it goes.
//
// The simulator exists because no off-the-shelf optical-NoC simulation
// ecosystem exists in Go (see DESIGN.md): it independently
// cross-validates the paper's analytic time model (internal/sched) —
// integer-cycle makespans must bracket the analytic ones within
// ceiling error, including the core-serialized model for shared-core
// mappings — and it double-checks the chromosome validity rule by
// construction: any double-booking of a (segment, channel) during
// overlapping cycles, or of a core by two concurrent tasks, is
// reported as a violation.
package sim

import (
	"fmt"
	"math"

	"repro/internal/alloc"
)

// Options tune a simulation run.
type Options struct {
	// LatencyPerHopCycles adds a fixed pipeline latency per waveguide
	// hop to every communication (0 in the paper's model: light
	// transit is negligible against k-cc transfers).
	LatencyPerHopCycles int64
	// Unchecked skips the analytic validity gate, letting invalid
	// allocations run so the occupancy checker can demonstrate the
	// physical conflict. Checked runs refuse invalid genomes.
	Unchecked bool
}

// Interval is a half-open busy interval in integer cycles.
type Interval struct {
	Start, End int64
	// Comm is the index of the holder: the communication (edge index)
	// for SegmentChannel entries, the task index for CoreBusy entries.
	Comm int
}

// Result carries the simulated timeline and resource traces.
type Result struct {
	// MakespanCycles is the simulated global execution time.
	MakespanCycles int64
	// TaskStart and TaskEnd are per-task integer times.
	TaskStart, TaskEnd []int64
	// CommStart and CommEnd are per-edge integer windows (zero-volume
	// edges and same-core self edges collapse to a point).
	CommStart, CommEnd []int64
	// CoreBusy lists each core's execution intervals (Interval.Comm
	// holds the task index), sorted by start; it is indexed by core
	// and a core that ran no task has an empty list. The simulator
	// serializes same-core tasks itself, so overlapping intervals here
	// mean the dispatcher is broken — they are reported as
	// violations, mirroring the (segment, channel) cross-check.
	CoreBusy [][]Interval
	// Violations lists every double-booking detected — (segment,
	// channel) or core — empty for any genome the analytic validity
	// rule accepts.
	Violations []string
	// LaserFJ is the integrated laser energy: the analytic per-window
	// energies re-integrated over the simulated integer windows. For
	// Unchecked runs of analytically invalid genomes it is NaN — the
	// analytic model produced no energy windows to integrate.
	LaserFJ float64

	// The (segment, channel) busy lists live in one arena in CSR
	// form: the list of key k = (slot[seg]-1)*nw + ch is
	// ivs[off[k]:off[k+1]]. slot numbers the resources the instance's
	// paths traverse densely from 1 (0 = on no path), so the key space
	// follows the instance's routes, not the fabric's resource-ID
	// range (the crossbar numbers N² hops). slot and the length of off
	// are fixed when the simulator is built; off and ivs are filled
	// per run.
	nw   int
	slot []int32
	off  []int32
	ivs  []Interval
}

// SegmentChannel returns the busy intervals of channel ch on shared
// resource seg, sorted by start; empty when the pair was never booked.
// The returned slice is shared; callers must not mutate it.
func (r *Result) SegmentChannel(seg, ch int) []Interval {
	if seg < 0 || seg >= len(r.slot) || r.slot[seg] == 0 || ch < 0 || ch >= r.nw {
		return nil
	}
	k := r.key(seg, ch)
	lo, hi := r.off[k], r.off[k+1]
	return r.ivs[lo:hi:hi]
}

// key is the CSR key of a booked resource's channel.
func (r *Result) key(seg, ch int) int { return int(r.slot[seg]-1)*r.nw + ch }

// event is a scheduled simulator wake-up.
type event struct {
	time int64
	kind int // 0 = task completion, 1 = communication completion
	id   int
	seq  int // tie-breaker for determinism
}

// before orders events by (time, kind, seq). seq is unique, so the
// order is strict and total: the pop sequence does not depend on the
// heap's layout.
func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events, typed so that pushing and
// popping copy events instead of boxing them into interfaces.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Simulator is a reusable simulation of one instance: it is built
// once over an evaluator, computes the task graph's adjacency once,
// and keeps its result, occupancy, event-queue and dispatch arrays
// across runs, so a warm simulator re-running valid genomes does not
// allocate. The evaluator supplies the validity gate and the laser
// windows; its optics memo is exact, so a warm evaluator yields the
// same bits as a fresh one.
//
// A Simulator uses its evaluator exclusively while it runs and is not
// safe for concurrent use.
type Simulator struct {
	in      *alloc.Instance
	ev      *alloc.Evaluator
	eval    alloc.Eval
	resName string // the fabric's name for one shared resource
	// inDeg counts each task's incoming edges; task t's outgoing edges
	// are succ[succOff[t]:succOff[t+1]], in edge order.
	inDeg   []int
	succOff []int
	succ    []int

	res Result

	// The run's genome, decoded once: edge ei's reserved channels are
	// chans[chOff[ei]:chOff[ei+1]] in ascending order, and counts[ei]
	// is their number.
	chOff    []int
	chans    []int
	counts   []int
	durs     []int64
	pending  []int   // unreceived inputs per task
	readyAt  []int64 // data-ready instant per task
	coreFree []int64 // next instant each core is idle
	waiting  [][]int // data-ready tasks queued per core
	fill     []int32 // next free arena slot per occupancy key
	q        eventQueue
	seq      int
}

// NewSimulator builds a simulator over ev's instance. The simulator
// evaluates through ev; the caller must not use ev while a Run is in
// progress.
func NewSimulator(ev *alloc.Evaluator) *Simulator {
	in := ev.Instance()
	app := in.App
	nTasks, nEdges, nCores := app.NumTasks(), app.NumEdges(), in.Fabric().Size()
	s := &Simulator{
		in:      in,
		ev:      ev,
		resName: in.Fabric().ResourceName(),
		inDeg:   make([]int, nTasks),
		succOff: make([]int, nTasks+1),
		succ:    make([]int, nEdges),
		res: Result{
			TaskStart: make([]int64, nTasks),
			TaskEnd:   make([]int64, nTasks),
			CommStart: make([]int64, nEdges),
			CommEnd:   make([]int64, nEdges),
			CoreBusy:  make([][]Interval, nCores),
		},
		chOff:    make([]int, nEdges+1),
		chans:    make([]int, 0, nEdges*in.Channels()),
		counts:   make([]int, nEdges),
		durs:     make([]int64, nEdges),
		pending:  make([]int, nTasks),
		readyAt:  make([]int64, nTasks),
		coreFree: make([]int64, nCores),
		waiting:  make([][]int, nCores),
	}
	for _, e := range app.Edges {
		s.inDeg[e.Dst]++
		s.succOff[e.Src+1]++
	}
	for t := 0; t < nTasks; t++ {
		s.succOff[t+1] += s.succOff[t]
	}
	next := append([]int(nil), s.succOff[:nTasks]...)
	maxRes := -1
	for ei, e := range app.Edges {
		s.succ[next[e.Src]] = ei
		next[e.Src]++
		for _, seg := range in.Path(ei).Resources() {
			maxRes = max(maxRes, seg)
		}
	}
	s.res.nw = in.Channels()
	s.res.slot = make([]int32, maxRes+1)
	numbered := int32(0)
	for ei := range app.Edges {
		for _, seg := range in.Path(ei).Resources() {
			if s.res.slot[seg] == 0 {
				numbered++
				s.res.slot[seg] = numbered
			}
		}
	}
	s.res.off = make([]int32, int(numbered)*s.res.nw+1)
	s.fill = make([]int32, len(s.res.off)-1)
	// Every task runs once and queues once on its mapped core, so each
	// core's busy list and ready queue are carved from one flat array
	// at the core's task count. A core without tasks keeps nil lists.
	perCore := make([]int, nCores)
	for _, c := range in.Map {
		perCore[c]++
	}
	busy, queued := make([]Interval, nTasks), make([]int, nTasks)
	off := 0
	for c, n := range perCore {
		if n > 0 {
			s.res.CoreBusy[c] = busy[off : off : off+n]
			s.waiting[c] = queued[off : off : off+n]
		}
		off += n
	}
	return s
}

// Instance returns the instance the simulator runs.
func (s *Simulator) Instance() *alloc.Instance { return s.in }

// Run simulates the allocation g on instance in: a one-shot Simulator
// over an evaluator drawn from the instance's pool.
func Run(in *alloc.Instance, g alloc.Genome, opt Options) (*Result, error) {
	ev, err := in.BorrowEvaluator()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer in.ReturnEvaluator(ev)
	return NewSimulator(ev).Run(g, opt)
}

// Run simulates the allocation g. Cores are a simulated resource: a
// core executes one task at a time, picking among its data-ready
// tasks the one with the earliest (ready time, task index) — the same
// deterministic policy as the analytic core-serialized model, so the
// two stay bracketed within ceiling error.
//
// The returned Result aliases the simulator's scratch: it is valid
// until the next Run.
func (s *Simulator) Run(g alloc.Genome, opt Options) (*Result, error) {
	in, app := s.in, s.in.App
	s.ev.EvaluateInto(&s.eval, g)
	if !s.eval.Valid && !opt.Unchecked {
		return nil, fmt.Errorf("sim: allocation invalid: %s", s.eval.Reason())
	}
	if opt.LatencyPerHopCycles < 0 {
		return nil, fmt.Errorf("sim: negative hop latency")
	}
	if g.Edges() != in.Edges() || g.Channels() != in.Channels() {
		return nil, fmt.Errorf("sim: genome shape %dx%d does not match instance %dx%d",
			g.Edges(), g.Channels(), in.Edges(), in.Channels())
	}
	s.decode(g)
	counts := s.counts
	for e := range app.Edges {
		if app.Edges[e].VolumeBits > 0 && counts[e] == 0 && !in.SelfEdge(e) && !opt.Unchecked {
			return nil, fmt.Errorf("sim: communication %s has no wavelengths", app.Edges[e].Name)
		}
	}

	res := &s.res
	res.MakespanCycles = 0
	res.Violations = nil
	// A run that completes sets every task's times and every edge's
	// window; TaskEnd = -1 marks a task that never completed.
	for i := range res.TaskStart {
		res.TaskStart[i] = -1
		res.TaskEnd[i] = -1
	}
	for c := range res.CoreBusy {
		res.CoreBusy[c] = res.CoreBusy[c][:0]
	}
	for ei := range s.durs {
		// Self edges have zero-hop paths, so they pick up no hop
		// latency either.
		s.durs[ei] = commDuration(in, counts, ei) + opt.LatencyPerHopCycles*int64(in.Path(ei).Hops())
	}
	s.bookArena()

	copy(s.pending, s.inDeg)
	clear(s.coreFree)
	for c := range s.waiting {
		s.waiting[c] = s.waiting[c][:0]
	}
	s.q = s.q[:0]
	s.seq = 0
	for t := range s.pending {
		if s.pending[t] == 0 {
			s.readyAt[t] = 0
			s.waiting[in.Map[t]] = append(s.waiting[in.Map[t]], t)
		}
	}
	for core := range s.waiting {
		s.dispatch(core, 0)
	}

	for len(s.q) > 0 {
		// Drain every event at this timestamp before dispatching, so
		// a core choosing its next task sees all tasks that became
		// ready at this instant — matching the analytic model's
		// global (start, ready, index) commitment order.
		now := s.q[0].time
		for len(s.q) > 0 && s.q[0].time == now {
			e := s.q.pop()
			switch e.kind {
			case 0: // task finished: launch its outgoing communications
				t := e.id
				res.TaskEnd[t] = e.time
				if e.time > res.MakespanCycles {
					res.MakespanCycles = e.time
				}
				for _, ei := range s.succ[s.succOff[t]:s.succOff[t+1]] {
					dur := s.durs[ei]
					res.CommStart[ei] = e.time
					res.CommEnd[ei] = e.time + dur
					if dur > 0 {
						s.reserve(ei, e.time, e.time+dur)
					}
					s.push(e.time+dur, 1, ei)
				}
			case 1: // communication delivered: maybe queue its consumer
				ei := e.id
				dst := app.Edges[ei].Dst
				s.pending[dst]--
				if s.pending[dst] == 0 {
					s.readyAt[dst] = e.time
					s.waiting[in.Map[dst]] = append(s.waiting[in.Map[dst]], dst)
				}
			}
		}
		for core := range s.waiting {
			s.dispatch(core, now)
		}
	}

	for t := range res.TaskEnd {
		if res.TaskEnd[t] < 0 {
			return nil, fmt.Errorf("sim: task %d never completed (broken dependency graph)", t)
		}
	}
	res.LaserFJ = integrateLaser(in, &s.eval, counts, res)
	return res, nil
}

func (s *Simulator) push(time int64, kind, id int) {
	s.q.push(event{time: time, kind: kind, id: id, seq: s.seq})
	s.seq++
}

// startTask books the core and schedules the completion. The CoreBusy
// overlap scan is the occupancy cross-check: dispatch serializes
// same-core tasks, so a hit means the simulator itself is broken.
func (s *Simulator) startTask(t int, now int64) {
	res := &s.res
	res.TaskStart[t] = now
	end := now + ceil64(s.in.App.Tasks[t].ExecCycles)
	core := s.in.Map[t]
	for _, iv := range res.CoreBusy[core] {
		if now < iv.End && iv.Start < end {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"core %d double-booked: task %d [%d,%d) vs task %d [%d,%d)",
				core, iv.Comm, iv.Start, iv.End, t, now, end))
		}
	}
	res.CoreBusy[core] = append(res.CoreBusy[core], Interval{Start: now, End: end, Comm: t})
	s.coreFree[core] = end
	s.push(end, 0, t)
}

// dispatch starts the waiting task with the earliest (ready, index)
// on core if the core is idle at now.
func (s *Simulator) dispatch(core int, now int64) {
	waiting := s.waiting[core]
	if s.coreFree[core] > now || len(waiting) == 0 {
		return
	}
	best, bestPos := -1, -1
	for pos, t := range waiting {
		if best == -1 || s.readyAt[t] < s.readyAt[best] ||
			(s.readyAt[t] == s.readyAt[best] && t < best) {
			best, bestPos = t, pos
		}
	}
	s.waiting[core] = append(waiting[:bestPos], waiting[bestPos+1:]...)
	s.startTask(best, now)
}

// commDuration is the integer transfer time of edge ei. Self edges of
// shared-core mappings stay in the core's memory: zero cycles.
func commDuration(in *alloc.Instance, counts []int, ei int) int64 {
	vol := in.App.Edges[ei].VolumeBits
	if vol <= 0 || in.SelfEdge(ei) {
		return 0
	}
	n := counts[ei]
	if n == 0 {
		// Only reachable in unchecked mode; model an unserviced
		// transfer as a single-wavelength one so the run completes.
		n = 1
	}
	bitsPerCycle := float64(n) * in.BitsPerCycle
	return ceil64(vol / bitsPerCycle)
}

// decode is the run's one pass over the genome: it fills the per-edge
// channel lists and counts that the arena sizing, the durations, the
// bookings and the laser integration read. The simulator decodes the
// genome bytes itself rather than reusing the evaluator's masks, so
// the occupancy check does not share its input with the kernel it
// cross-checks.
func (s *Simulator) decode(g alloc.Genome) {
	nw := g.Channels()
	s.chans = s.chans[:0]
	for ei := range s.counts {
		for ch := 0; ch < nw; ch++ {
			if g.Get(ei, ch) {
				s.chans = append(s.chans, ch)
			}
		}
		s.chOff[ei+1] = len(s.chans)
		s.counts[ei] = s.chOff[ei+1] - s.chOff[ei]
	}
}

// edgeChans returns edge ei's reserved channels, ascending.
func (s *Simulator) edgeChans(ei int) []int { return s.chans[s.chOff[ei]:s.chOff[ei+1]] }

// bookArena sizes the run's occupancy arena in the Result: a
// counting pass over every booked edge (durs[ei] > 0) and its path
// resources × channel list. The arena's slices are the simulator's,
// resized for the run.
func (s *Simulator) bookArena() {
	in, res := s.in, &s.res
	keys := len(res.off) - 1
	clear(res.off)
	for ei, dur := range s.durs {
		if dur <= 0 {
			continue
		}
		for _, ch := range s.edgeChans(ei) {
			for _, seg := range in.Path(ei).Resources() {
				res.off[res.key(seg, ch)+1]++
			}
		}
	}
	for k := 0; k < keys; k++ {
		res.off[k+1] += res.off[k]
	}
	// A run that returns its Result has reserved every booked edge,
	// filling every arena slot, so the arena is resliced, not zeroed.
	// Like make, this never leaves it nil.
	if n := int(res.off[keys]); res.ivs == nil || cap(res.ivs) < n {
		res.ivs = make([]Interval, n)
	} else {
		res.ivs = res.ivs[:n]
	}
	copy(s.fill, res.off)
}

// reserve books every (resource, channel) of communication ei for
// [start, end), resource-major then by ascending channel, recording
// violations on overlap. The violation wording names the backend's
// shared-medium unit (ring: "segment", crossbar: "hop") so
// diagnostics read in the fabric's own vocabulary.
func (s *Simulator) reserve(ei int, start, end int64) {
	res, edges := &s.res, s.in.App.Edges
	chans := s.edgeChans(ei)
	for _, seg := range s.in.Path(ei).Resources() {
		for _, ch := range chans {
			k := res.key(seg, ch)
			for _, iv := range res.ivs[res.off[k]:s.fill[k]] {
				if start < iv.End && iv.Start < end {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"%s %d channel %d double-booked: %s [%d,%d) vs %s [%d,%d)",
						s.resName, seg, ch, edges[iv.Comm].Name, iv.Start, iv.End,
						edges[ei].Name, start, end))
				}
			}
			res.ivs[s.fill[k]] = Interval{Start: start, End: end, Comm: ei}
			s.fill[k]++
		}
	}
}

// integrateLaser re-integrates the analytic per-wavelength laser power
// over the simulated integer windows, reusing the evaluation Run
// already computed. An invalid evaluation (only reachable in unchecked
// mode) carries no energy windows: the result is NaN, not a silent 0.
func integrateLaser(in *alloc.Instance, ev *alloc.Eval, counts []int, res *Result) float64 {
	if !ev.Valid {
		return math.NaN()
	}
	var fj float64
	for e := 0; e < in.Edges(); e++ {
		if in.App.Edges[e].VolumeBits <= 0 || counts[e] == 0 || in.SelfEdge(e) {
			continue
		}
		dur := float64(res.CommEnd[e] - res.CommStart[e])
		if ev.CommEnergyFJ[e] > 0 && ev.Schedule.Comm[e].Duration() > 0 {
			// Same powers, integer instead of fractional duration.
			fj += ev.CommEnergyFJ[e] * dur / ev.Schedule.Comm[e].Duration()
		}
	}
	return fj
}

func ceil64(x float64) int64 { return int64(math.Ceil(x - 1e-9)) }
