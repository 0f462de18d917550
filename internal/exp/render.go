package exp

import "ltrf/internal/sim"

// evalFunc answers one point of a table render.
type evalFunc func(Point) (*sim.Result, error)

// render runs a driver's table body, which asks eval for each point where
// it uses it. The first pass answers from the memo alone: a settled point
// gives its result or error, and a missing or in-flight one gives a
// placeholder while its first ask is recorded. When nothing was missing,
// that pass's table (or error) is the answer, so a warm re-render never
// dispatches. Otherwise RunBatch evaluates the recorded points on the
// options' worker pool and the body runs again, now one memo hit per cell.
// Tables are thus rendered serially in driver order whatever the
// parallelism. draw may run twice, so it must keep its state local.
func render(o Options, draw func(eval evalFunc) (*Table, error)) (*Table, error) {
	eng := o.engine()
	rec := recorder{eng: eng, seen: map[Point]bool{}}
	t, err := draw(rec.ask)
	if len(rec.missing) == 0 {
		return t, err
	}
	eng.RunBatch(o.ctx(), o, rec.missing)
	var asked []Point
	t, err = draw(func(p Point) (*sim.Result, error) {
		if renderHook != nil {
			asked = append(asked, p)
		}
		return eng.Eval(o.ctx(), p)
	})
	if renderHook != nil {
		renderHook(rec.missing, asked)
	}
	return t, err
}

// renderHook, when set, sees every render that dispatched a batch: the
// points its first pass recorded and those its second pass asked for.
// Only tests set it.
var renderHook func(recorded, asked []Point)

// recorder is a render's first pass.
type recorder struct {
	eng     *Engine
	seen    map[Point]bool // canonical points already recorded
	missing []Point
}

func (r *recorder) ask(p Point) (*sim.Result, error) {
	if ent := r.eng.settled(p); ent != nil {
		return ent.res, ent.err
	}
	if k := p.canon(); !r.seen[k] {
		r.seen[k] = true
		r.missing = append(r.missing, p)
	}
	// Unit cycles, instructions and IPC keep every driver's arithmetic
	// finite; the table they make is discarded.
	res := &sim.Result{Design: p.Design}
	res.Cycles, res.Instrs, res.IPC = 1, 1, 1
	return res, nil
}
