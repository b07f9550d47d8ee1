// Package vtblock is a golden-file fixture for the vtblock analyzer.
package vtblock

// Proc is the fixture's stand-in for sim.Proc; park is the seed the
// blocking summary grows from.
type Proc struct{ t int64 }

func (p *Proc) park() { p.t++ }

// Sleep reaches park the way every kernel wait primitive does.
func (p *Proc) Sleep(d int64) { p.park() }

// Engine registers callbacks that run on the engine goroutine.
type Engine struct{}

func (e *Engine) At(t int64, f func(*Proc))     {}
func (e *Engine) Go(name string, f func(*Proc)) {}

// Stone transitively parks: Submit charges transit time.
type Stone struct{ p *Proc }

func (s *Stone) Submit(v int) { s.p.Sleep(int64(v)) }

// relay is an intermediate hop the witness chain must pass through.
func relay(s *Stone, v int) { s.Submit(v) }

// dispatch declares itself non-blocking but reaches park via relay.
//
//iocheck:nonblocking
func dispatch(s *Stone, v int) {
	relay(s, v) // want "may block virtual time"
}

// dispatchAudited suppresses the same finding with an audit trail.
//
//iocheck:nonblocking
func dispatchAudited(s *Stone, v int) {
	//iocheck:allow vtblock fixture: audited exception, pins that an allow suppresses the finding and keeps its reason
	relay(s, v)
}

// Outbox is the shape of an overlay send: Submit takes no proc and only
// enqueues, so nothing it reaches can park.
type Outbox struct{ q []int }

func (o *Outbox) Submit(v int) { o.q = append(o.q, v) }

func forward(o *Outbox, v int) { o.Submit(v) }

// pump is a non-blocking dispatch whose every send is an enqueue-only
// Submit, directly and through a helper: no finding and no audit.
//
//iocheck:nonblocking
func pump(o *Outbox, v int) {
	o.Submit(v)
	forward(o, v+1)
}

// register hands the engine a literal that parks (a finding) and one
// that does not (no finding).
func register(e *Engine, s *Stone) {
	e.At(5, func(p *Proc) {
		s.Submit(1) // want "engine callback"
	})
	e.At(6, func(p *Proc) {
		_ = s
	})
}

// registerValue hands the engine a blocking method value; the graph
// resolves it without a literal body to scan.
func registerValue(e *Engine) {
	e.At(7, blocker) // want "registered as an engine callback"
}

func blocker(p *Proc) { p.Sleep(1) }

// drain parks inside map iteration: wake order would follow Go's
// randomized map order.
func drain(m map[int]*Stone) {
	for _, s := range m {
		s.Submit(1) // want "map iteration"
	}
}

// launch is the normal case: a launcher literal is its own process, so
// sleeping there is not a finding.
func launch(e *Engine, s *Stone) {
	e.Go("worker", func(p *Proc) { p.Sleep(1) })
}
