package alloc

import "sync"

// EvaluatorPool recycles evaluators over one shared read-only
// instance: callers that serve many short-lived evaluation requests
// (the waserve evaluate and explain handlers) draw a warm evaluator,
// run it, and put it back, instead of paying NewEvaluator's scratch
// construction per request.
//
// The pool is safe for concurrent use; the evaluators it hands out are
// not — each Get gives the caller exclusive use until the matching
// Put. Evaluators are constructed lazily, so an idle pool costs
// nothing, and sync.Pool semantics apply: evaluators may be dropped
// under memory pressure and rebuilt on demand.
type EvaluatorPool struct {
	in   *Instance
	pool sync.Pool
}

// NewEvaluatorPool builds a pool over in.
func NewEvaluatorPool(in *Instance) *EvaluatorPool {
	return &EvaluatorPool{in: in}
}

// Instance returns the instance every pooled evaluator is bound to.
func (p *EvaluatorPool) Instance() *Instance { return p.in }

// Get returns an evaluator for exclusive use until Put. The only
// possible error is NewEvaluator's (a task graph that lost its
// acyclicity since instance construction).
func (p *EvaluatorPool) Get() (*Evaluator, error) {
	if ev, _ := p.pool.Get().(*Evaluator); ev != nil {
		return ev, nil
	}
	return NewEvaluator(p.in)
}

// Put returns an evaluator to the pool. Evaluators bound to a
// different instance are dropped rather than poisoning the pool.
func (p *EvaluatorPool) Put(ev *Evaluator) {
	if ev == nil || ev.in != p.in {
		return
	}
	p.pool.Put(ev)
}
