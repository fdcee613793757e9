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
	// ivs[off[k]:off[k+1]]. slot numbers the booked resources densely
	// from 1 (0 = never booked), so the key space follows the run,
	// not the fabric's resource-ID range (the crossbar numbers N²
	// hops).
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

// Run simulates the allocation g on instance in. Cores are a
// simulated resource: a core executes one task at a time, picking
// among its data-ready tasks the one with the earliest (ready time,
// task index) — the same deterministic policy as the analytic
// core-serialized model, so the two stay bracketed within ceiling
// error.
func Run(in *alloc.Instance, g alloc.Genome, opt Options) (*Result, error) {
	ev := in.Evaluate(g)
	if !ev.Valid && !opt.Unchecked {
		return nil, fmt.Errorf("sim: allocation invalid: %s", ev.Reason())
	}
	if opt.LatencyPerHopCycles < 0 {
		return nil, fmt.Errorf("sim: negative hop latency")
	}
	app := in.App
	counts := g.Counts()
	for e := range app.Edges {
		if app.Edges[e].VolumeBits > 0 && counts[e] == 0 && !in.SelfEdge(e) && !opt.Unchecked {
			return nil, fmt.Errorf("sim: communication %s has no wavelengths", app.Edges[e].Name)
		}
	}

	res := &Result{
		TaskStart: make([]int64, app.NumTasks()),
		TaskEnd:   make([]int64, app.NumTasks()),
		CommStart: make([]int64, app.NumEdges()),
		CommEnd:   make([]int64, app.NumEdges()),
		CoreBusy:  make([][]Interval, in.Fabric().Size()),
	}
	for i := range res.TaskStart {
		res.TaskStart[i] = -1
		res.TaskEnd[i] = -1
	}
	durs := make([]int64, app.NumEdges())
	for ei := range durs {
		// Self edges have zero-hop paths, so they pick up no hop
		// latency either.
		durs[ei] = commDuration(in, counts, ei) + opt.LatencyPerHopCycles*int64(in.Path(ei).Hops())
	}
	occ := newOccupancy(in, g, durs, res)

	preds := app.Preds()
	succs := app.Succs()
	pending := make([]int, app.NumTasks()) // unreceived inputs per task
	for t := range pending {
		pending[t] = len(preds[t])
	}

	nCores := in.Fabric().Size()
	coreFree := make([]int64, nCores) // next instant the core is idle
	waiting := make([][]int, nCores)  // data-ready tasks queued per core
	readyAt := make([]int64, app.NumTasks())

	var q eventQueue
	seq := 0
	push := func(time int64, kind, id int) {
		q.push(event{time: time, kind: kind, id: id, seq: seq})
		seq++
	}
	// startTask books the core and schedules the completion. The
	// CoreBusy overlap scan is the occupancy cross-check: the
	// dispatcher below serializes same-core tasks, so a hit means the
	// simulator itself is broken.
	startTask := func(t int, now int64) {
		res.TaskStart[t] = now
		end := now + ceil64(app.Tasks[t].ExecCycles)
		core := in.Map[t]
		for _, iv := range res.CoreBusy[core] {
			if now < iv.End && iv.Start < end {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"core %d double-booked: task %d [%d,%d) vs task %d [%d,%d)",
					core, iv.Comm, iv.Start, iv.End, t, now, end))
			}
		}
		res.CoreBusy[core] = append(res.CoreBusy[core], Interval{Start: now, End: end, Comm: t})
		coreFree[core] = end
		push(end, 0, t)
	}
	// dispatch starts the waiting task with the earliest (ready, index)
	// on core if the core is idle at now.
	dispatch := func(core int, now int64) {
		if coreFree[core] > now || len(waiting[core]) == 0 {
			return
		}
		best, bestPos := -1, -1
		for pos, t := range waiting[core] {
			if best == -1 || readyAt[t] < readyAt[best] ||
				(readyAt[t] == readyAt[best] && t < best) {
				best, bestPos = t, pos
			}
		}
		waiting[core] = append(waiting[core][:bestPos], waiting[core][bestPos+1:]...)
		startTask(best, now)
	}
	for t := range pending {
		if pending[t] == 0 {
			readyAt[t] = 0
			waiting[in.Map[t]] = append(waiting[in.Map[t]], t)
		}
	}
	for core := 0; core < nCores; core++ {
		dispatch(core, 0)
	}

	for len(q) > 0 {
		// Drain every event at this timestamp before dispatching, so
		// a core choosing its next task sees all tasks that became
		// ready at this instant — matching the analytic model's
		// global (start, ready, index) commitment order.
		now := q[0].time
		for len(q) > 0 && q[0].time == now {
			e := q.pop()
			switch e.kind {
			case 0: // task finished: launch its outgoing communications
				t := e.id
				res.TaskEnd[t] = e.time
				if e.time > res.MakespanCycles {
					res.MakespanCycles = e.time
				}
				for _, ei := range succs[t] {
					dur := durs[ei]
					res.CommStart[ei] = e.time
					res.CommEnd[ei] = e.time + dur
					if dur > 0 {
						occ.reserve(ei, e.time, e.time+dur)
					}
					push(e.time+dur, 1, ei)
				}
			case 1: // communication delivered: maybe queue its consumer
				ei := e.id
				dst := app.Edges[ei].Dst
				pending[dst]--
				if pending[dst] == 0 {
					readyAt[dst] = e.time
					waiting[in.Map[dst]] = append(waiting[in.Map[dst]], dst)
				}
			}
		}
		for core := 0; core < nCores; core++ {
			dispatch(core, now)
		}
	}

	for t := range res.TaskEnd {
		if res.TaskEnd[t] < 0 {
			return nil, fmt.Errorf("sim: task %d never completed (broken dependency graph)", t)
		}
	}
	res.LaserFJ = integrateLaser(in, &ev, counts, res)
	return res, nil
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

// occupancy books (resource, channel) pairs into the Result's CSR
// arena. Bookings happen at the current event time, which never
// decreases, so every list fills in start order.
type occupancy struct {
	in      *alloc.Instance
	g       alloc.Genome
	res     *Result
	fill    []int32 // next free arena slot per key
	resName string  // the fabric's name for one shared resource
}

// newOccupancy sizes the occupancy arena of res for the run: a
// counting pass over every booked edge (durs[ei] > 0) and its path
// resources × channel set.
func newOccupancy(in *alloc.Instance, g alloc.Genome, durs []int64, res *Result) *occupancy {
	nw := in.Channels()
	maxRes := -1
	for ei, dur := range durs {
		if dur <= 0 {
			continue
		}
		for _, seg := range in.Path(ei).Resources() {
			maxRes = max(maxRes, seg)
		}
	}
	res.nw = nw
	res.slot = make([]int32, maxRes+1)
	booked := int32(0)
	for ei, dur := range durs {
		if dur <= 0 {
			continue
		}
		for _, seg := range in.Path(ei).Resources() {
			if res.slot[seg] == 0 {
				booked++
				res.slot[seg] = booked
			}
		}
	}
	keys := int(booked) * nw
	res.off = make([]int32, keys+1)
	for ei, dur := range durs {
		if dur <= 0 {
			continue
		}
		for ch := 0; ch < nw; ch++ {
			if !g.Get(ei, ch) {
				continue
			}
			for _, seg := range in.Path(ei).Resources() {
				res.off[res.key(seg, ch)+1]++
			}
		}
	}
	for k := 0; k < keys; k++ {
		res.off[k+1] += res.off[k]
	}
	res.ivs = make([]Interval, res.off[keys])
	return &occupancy{
		in:      in,
		g:       g,
		res:     res,
		fill:    append([]int32(nil), res.off[:keys]...),
		resName: in.Fabric().ResourceName(),
	}
}

// reserve books every (resource, channel) of communication ei for
// [start, end), recording violations on overlap. The violation wording
// names the backend's shared-medium unit (ring: "segment", crossbar:
// "hop") so diagnostics read in the fabric's own vocabulary.
func (o *occupancy) reserve(ei int, start, end int64) {
	res, edges := o.res, o.in.App.Edges
	for _, seg := range o.in.Path(ei).Resources() {
		for ch := 0; ch < res.nw; ch++ {
			if !o.g.Get(ei, ch) {
				continue
			}
			k := res.key(seg, ch)
			for _, iv := range res.ivs[res.off[k]:o.fill[k]] {
				if start < iv.End && iv.Start < end {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"%s %d channel %d double-booked: %s [%d,%d) vs %s [%d,%d)",
						o.resName, seg, ch, edges[iv.Comm].Name, iv.Start, iv.End,
						edges[ei].Name, start, end))
				}
			}
			res.ivs[o.fill[k]] = Interval{Start: start, End: end, Comm: ei}
			o.fill[k]++
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
