package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"xkaapi"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/tile"
)

// Cholesky input: nb=32 makes 5,985 tasks per solve — past the slab's
// free-list cap and the deque's fixed ring — so scheduling cost shows
// next to the BLAS kernels (at nb=128 a solve is 121 tasks).
const (
	cholN     = 1024
	cholNB    = 32
	maxResid  = 1e-12
	cholFlops = float64(cholN) * cholN * cholN / 3
)

// cholBench is the dataflow workload: cholesky.Seq, then cholesky.Kaapi on
// a 1-worker and an nproc-worker runtime, each factoring a fresh copy of
// one seeded SPD matrix.
//
// The residual check is O(n³), a whole solve's worth of work, so it runs
// once, on the sequential factor; every other solve must then reproduce
// that factor bit for bit (each tile sees the same kernel calls in the
// same order, whatever the schedule), which gives it the same residual.
// A solve that differs gets its own residual computed instead.
type cholBench struct {
	nproc    int
	src      *tile.Dense
	tiled    *tile.Tiled
	work     *tile.Tiled // factored in place, refilled from tiled before each solve
	ref      *tile.Tiled // sequential factor
	rt1, rtP *xkaapi.Runtime
}

func newChol(seed uint64, nproc int) (workload, error) {
	src := tile.NewSPD(cholN, seed)
	b := &cholBench{nproc: nproc, src: src, tiled: tile.FromDense(src, cholNB)}
	b.work = b.tiled.Clone()
	b.ref = b.tiled.Clone()
	if err := cholesky.Seq(b.ref); err != nil {
		return nil, fmt.Errorf("chol reference: %w", err)
	}
	b.rt1 = xkaapi.New(xkaapi.WithWorkers(1))
	b.rtP = xkaapi.New(xkaapi.WithWorkers(nproc))
	for _, rt := range []*xkaapi.Runtime{b.rt1, b.rtP} {
		if _, err := b.solve(rt, nil, -1); err != nil {
			b.close()
			return nil, fmt.Errorf("chol warm-up: %w", err)
		}
	}
	return b, nil
}

// verify checks the reference factor's residual; it is called once per
// run, outside any timed interval and outside setup.
func (b *cholBench) verify() error {
	if r := tile.CholeskyResidual(b.src, b.ref); !(r <= maxResid) {
		return fmt.Errorf("chol: sequential residual %g > %g", r, maxResid)
	}
	return nil
}

// check compares a factor with the reference.
func (b *cholBench) check(f *tile.Tiled) error {
	same := true
	for i := range f.T {
		if !slices.Equal(f.T[i], b.ref.T[i]) {
			same = false
			break
		}
	}
	if same {
		return nil
	}
	if r := tile.CholeskyResidual(b.src, f); !(r <= maxResid) {
		return fmt.Errorf("chol: residual %g > %g", r, maxResid)
	}
	return nil
}

// solve factors a fresh copy of the input on rt (sequentially when rt is
// nil). With tr it records the solve span and its cholesky.kaapi or
// cholesky.seq child.
func (b *cholBench) solve(rt *xkaapi.Runtime, tr *tracer, id int64) (time.Duration, error) {
	f := b.work
	for i := range f.T {
		copy(f.T[i], b.tiled.T[i])
	}
	var err error
	t0 := time.Now()
	if rt == nil {
		err = cholesky.Seq(f)
	} else {
		err = cholesky.Kaapi(rt, f)
	}
	t1 := time.Now()
	if tr != nil {
		name, child := "chol.solve", "cholesky.kaapi"
		if rt == nil {
			name, child = "chol.seq", "cholesky.seq"
		}
		tr.add(child, id, tr.add(name, id, -1, t0, t1), t0, t1)
	}
	if err != nil {
		return t1.Sub(t0), fmt.Errorf("chol: %w", err)
	}
	return t1.Sub(t0), b.check(f)
}

func (b *cholBench) run(d time.Duration, tr *tracer) (*result, error) {
	if err := b.verify(); err != nil {
		return nil, err
	}
	seq, t1, rounds, err := paired(d/2, 20, b.rt1, func(i int) (time.Duration, error) {
		return b.solve(nil, tr.op(i), int64(i))
	}, func(i int) (time.Duration, error) {
		return b.solve(b.rt1, nil, int64(i))
	})
	if err != nil {
		return nil, err
	}
	tp, err := measure(d/2, 20, b.rtP, func(i int) (time.Duration, error) {
		return b.solve(b.rtP, tr.op(i), int64(i))
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := res.solve(&seq, &t1, rounds, &tp, b.nproc); err != nil {
		return nil, err
	}
	v := res.values
	v["seq_gflops"] = ratio(cholFlops, v["seq_ms.p50"]*1e6)
	v["gflops"] = ratio(cholFlops, v["tp_ms.p50"]*1e6)
	res.traced(tr, &tp)
	return res, nil
}

func (b *cholBench) close() error {
	return errors.Join(closeRuntime(b.rt1), closeRuntime(b.rtP))
}
