package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"xkaapi"
	"xkaapi/internal/epx"
)

// foreacher is the loop part of epx.Backend: the workload's step runs
// through either the sequential backend or a runtime's Foreach.
type foreacher interface {
	Foreach(lo, hi int, body func(lo, hi int))
}

// rtLoop drives Foreach exactly as epx's Kaapi backend does
// (xkaapi.Runtime.Foreach, panics resurfaced), but on a runtime the
// benchmark holds, so its Stats can be read at phase boundaries;
// epx.NewKaapiBackend keeps its runtime private.
type rtLoop struct{ rt *xkaapi.Runtime }

func (l rtLoop) Foreach(lo, hi int, body func(lo, hi int)) {
	if err := l.rt.Foreach(lo, hi, func(_ *xkaapi.Proc, l, h int) { body(l, h) }); err != nil {
		panic(err)
	}
}

// loopBench is the adaptive-loop workload: one EPX step made of its two
// independent loops, LOOPELM (ElemForceRange) and REPERA (SortRange), on
// a fixed deformed state of a 32×32×16 box. Every step recomputes the same
// outputs from the same inputs, so each step's ForceNorm and CandChecksum
// must equal the sequential backend's exactly.
type loopBench struct {
	nproc     int
	st        *epx.State
	rep       *epx.Repera
	pstrain   []float64 // plastic strain before a step (LOOPELM updates it)
	wantForce float64
	wantCand  float64
	rt1, rtP  *xkaapi.Runtime
}

func newLoop(seed uint64, nproc int) (workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6f70))
	m := epx.NewBox(32, 32, 16, 1)
	st := epx.NewState(m, epx.Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.3+0.2*rng.Float64(), 0.6+0.4*rng.Float64())
	rep := epx.NewRepera(m, 12)
	seqb := epx.NewSeqBackend()
	// A few explicit steps deform the box, then the state is frozen.
	for range 3 {
		st.Assemble()
		st.Integrate()
		rep.Build(st.Disp)
		seqb.Foreach(0, m.NumElems(), st.ElemForceRange)
	}
	st.Assemble()
	st.Integrate()
	rep.Build(st.Disp)
	b := &loopBench{nproc: nproc, st: st, rep: rep, pstrain: append([]float64(nil), st.PStrain...)}
	b.step(seqb, nil, 0)
	b.wantForce, b.wantCand = b.outputs()

	b.rt1 = xkaapi.New(xkaapi.WithWorkers(1))
	b.rtP = xkaapi.New(xkaapi.WithWorkers(nproc))
	for _, rt := range []*xkaapi.Runtime{b.rt1, b.rtP} {
		if _, err := b.check(rtLoop{rt}, nil, -1); err != nil {
			b.close()
			return nil, fmt.Errorf("loop warm-up: %w", err)
		}
	}
	return b, nil
}

// step runs the two loops once through f and returns the step time. With
// tr it records the loop.step span and its foreach.elemforce and
// foreach.repera children.
func (b *loopBench) step(f foreacher, tr *tracer, id int64) time.Duration {
	copy(b.st.PStrain, b.pstrain)
	st, rep := b.st, b.rep
	t0 := time.Now()
	f.Foreach(0, st.M.NumElems(), st.ElemForceRange)
	t1 := time.Now()
	f.Foreach(0, st.M.NumNodes(), func(lo, hi int) { rep.SortRange(st.Disp, lo, hi) })
	t2 := time.Now()
	if tr != nil {
		root := tr.add("loop.step", id, -1, t0, t2)
		tr.add("foreach.elemforce", id, root, t0, t1)
		tr.add("foreach.repera", id, root, t1, t2)
	}
	return t2.Sub(t0)
}

// outputs assembles the step's forces and returns its two checksums.
func (b *loopBench) outputs() (force, cand float64) {
	b.st.Assemble()
	return b.st.ForceNorm(), b.rep.CandChecksum()
}

// check runs one step and compares its outputs with the sequential
// backend's, outside the step's time.
func (b *loopBench) check(f foreacher, tr *tracer, id int64) (time.Duration, error) {
	t := b.step(f, tr, id)
	force, cand := b.outputs()
	if force != b.wantForce || cand != b.wantCand {
		return t, fmt.Errorf("loop step: ForceNorm %v CandChecksum %v, sequential %v %v",
			force, cand, b.wantForce, b.wantCand)
	}
	return t, nil
}

func (b *loopBench) run(d time.Duration, tr *tracer) (*result, error) {
	seq, t1, rounds, err := paired(4*d/10, 20, b.rt1, func(int) (time.Duration, error) {
		return b.check(epx.NewSeqBackend(), nil, 0)
	}, func(int) (time.Duration, error) {
		return b.check(rtLoop{b.rt1}, nil, 0)
	})
	if err != nil {
		return nil, err
	}
	tp, err := measure(6*d/10, 100, b.rtP, func(i int) (time.Duration, error) {
		return b.check(rtLoop{b.rtP}, tr.op(i), int64(i))
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := res.solve(&seq, &t1, rounds, &tp, b.nproc); err != nil {
		return nil, err
	}
	if tr != nil {
		res.opt("elemforce_ms.p50", tr.durations("foreach.elemforce"), 0.5)
		res.opt("repera_ms.p50", tr.durations("foreach.repera"), 0.5)
	}
	res.traced(tr, &tp)
	return res, nil
}

func (b *loopBench) close() error {
	return errors.Join(closeRuntime(b.rt1), closeRuntime(b.rtP))
}
