package main

import (
	"errors"
	"fmt"
	"time"

	"xkaapi"
	"xkaapi/server"
)

// fibN is the fib workload's input: fib(27) spawns 317,811 tasks, so the
// spawn/sync fast path dominates a solve of tens of ms.
const fibN = 27

// fibPlain is the sequential baseline of the paper's Fig. 1: the same
// recursion with no runtime underneath.
func fibPlain(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibPlain(n-1) + fibPlain(n-2)
}

// fibTask is the paper's Fig. 1 program at finest grain: one spawned task
// per recursion node, one inline call, one sync.
func fibTask(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	p.Spawn(func(p *xkaapi.Proc) { fibTask(p, &r1, n-1) })
	fibTask(p, &r2, n-2)
	p.Sync()
	*r = r1 + r2
}

// fibBench is the fork-join workload: fibPlain, a 1-worker runtime and an
// nproc-worker runtime, each solving fib(fibN) in a closed loop with one
// submitter (Submit, then Job.Wait).
type fibBench struct {
	nproc    int
	want     int64
	rt1, rtP *xkaapi.Runtime
}

func newFib(_ uint64, nproc int) (workload, error) {
	b := &fibBench{nproc: nproc, want: fibPlain(fibN)}
	if ref := server.FibSeq(fibN); b.want != ref {
		return nil, fmt.Errorf("fib: fibPlain(%d) = %d, FibSeq = %d", fibN, b.want, ref)
	}
	b.rt1 = xkaapi.New(xkaapi.WithWorkers(1))
	b.rtP = xkaapi.New(xkaapi.WithWorkers(nproc))
	for _, rt := range []*xkaapi.Runtime{b.rt1, b.rtP} {
		for i := range 2 {
			if _, err := b.solve(rt, nil, int64(-1-i)); err != nil {
				b.close()
				return nil, fmt.Errorf("fib warm-up: %w", err)
			}
		}
	}
	return b, nil
}

// solve runs one fib(fibN) job on rt and checks its result. With tr it
// records the fib.solve span and its core.submit and core.wait children.
func (b *fibBench) solve(rt *xkaapi.Runtime, tr *tracer, id int64) (time.Duration, error) {
	var r int64
	t0 := time.Now()
	job := rt.Submit(func(p *xkaapi.Proc) { fibTask(p, &r, fibN) })
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	err := job.Wait()
	t2 := time.Now()
	if tr != nil {
		root := tr.add("fib.solve", id, -1, t0, t2)
		tr.add("core.submit", id, root, t0, t1)
		tr.add("core.wait", id, root, t1, t2)
	}
	if err != nil {
		return t2.Sub(t0), fmt.Errorf("fib job: %w", err)
	}
	if r != b.want {
		return t2.Sub(t0), fmt.Errorf("fib(%d) = %d, want %d", fibN, r, b.want)
	}
	return t2.Sub(t0), nil
}

func (b *fibBench) run(d time.Duration, tr *tracer) (*result, error) {
	seq, t1, rounds, err := paired(4*d/10, 20, b.rt1, func(int) (time.Duration, error) {
		t0 := time.Now()
		r := fibPlain(fibN)
		t := time.Since(t0)
		if r != b.want {
			return t, fmt.Errorf("fibPlain(%d) = %d, want %d", fibN, r, b.want)
		}
		return t, nil
	}, func(i int) (time.Duration, error) {
		return b.solve(b.rt1, nil, int64(i))
	})
	if err != nil {
		return nil, err
	}
	tp, err := measure(6*d/10, 100, b.rtP, func(i int) (time.Duration, error) {
		return b.solve(b.rtP, tr.op(i), int64(i))
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := res.solve(&seq, &t1, rounds, &tp, b.nproc); err != nil {
		return nil, err
	}
	if tr != nil {
		res.opt("submit_us.p50", scale(tr.durations("core.submit"), 1e3), 0.5)
		res.opt("wait_ms.p50", tr.durations("core.wait"), 0.5)
	}
	res.traced(tr, &tp)
	return res, nil
}

func (b *fibBench) close() error {
	return errors.Join(closeRuntime(b.rt1), closeRuntime(b.rtP))
}
