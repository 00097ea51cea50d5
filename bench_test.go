// Benchmarks regenerating every experiment of the paper (one benchmark
// family per table/figure) plus three ablations of the runtime's design
// choices, each described at its benchmarks. The cmd/
// drivers print the paper-style tables with core-count sweeps; these
// benchmarks pin the same workloads into `go test -bench` form at fixed
// (GOMAXPROCS) parallelism so regressions are visible in CI.
//
//	go test -bench=. -benchmem
//
// Mapping:
//
//	Fig.1  -> BenchmarkFig1Fib*            (cmd/xkfib)
//	Fig.2  -> BenchmarkFig2Cholesky*       (cmd/xkcholesky)
//	Fig.3  -> BenchmarkFig3Loops*          (cmd/xkloops)
//	Fig.6  -> BenchmarkFig6*               (cmd/xkepx -exp fig6)
//	Fig.7  -> BenchmarkFig7Sparse*         (cmd/xkspcholesky)
//	Fig.8  -> BenchmarkFig8EPX*            (cmd/xkepx -exp fig8)
//
//	steal-request aggregation on/off   -> BenchmarkAblationAggregation*
//	adaptive loop vs a task per chunk  -> BenchmarkAblationLoop*
//	central ready list vs deques       -> BenchmarkAblationCentralList,
//	                                      BenchmarkAblationDistributedDeques
package xkaapi_test

import (
	"sync/atomic"
	"testing"

	"xkaapi"
	"xkaapi/cilk"
	"xkaapi/gomp"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/epx"
	"xkaapi/internal/skyline"
	"xkaapi/internal/tile"
	"xkaapi/quark"
	"xkaapi/tbbsched"
)

// --- Fig. 1: Fibonacci task creation overhead ---

const benchFibN = 25

func fibPlain(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibPlain(n-1) + fibPlain(n-2)
}

func BenchmarkFig1FibSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if fibPlain(benchFibN) != 75025 {
			b.Fatal("bad fib")
		}
	}
}

func BenchmarkFig1FibKaapi(b *testing.B) {
	rt := xkaapi.New()
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		rt.Run(func(p *xkaapi.Proc) { fib(p, &r, benchFibN) })
		if r != 75025 {
			b.Fatal("bad fib")
		}
	}
}

func BenchmarkFig1FibCilk(b *testing.B) {
	pool := cilk.NewPool(0)
	defer pool.Close()
	var fc func(w *cilk.Worker, r *int64, n int)
	fc = func(w *cilk.Worker, r *int64, n int) {
		if n < 2 {
			*r = int64(n)
			return
		}
		var r1, r2 int64
		w.Spawn(func(w *cilk.Worker) { fc(w, &r1, n-1) })
		fc(w, &r2, n-2)
		w.Sync()
		*r = r1 + r2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		pool.Run(func(w *cilk.Worker) { fc(w, &r, benchFibN) })
		if r != 75025 {
			b.Fatal("bad fib")
		}
	}
}

func BenchmarkFig1FibTBB(b *testing.B) {
	s := tbbsched.NewScheduler(0)
	defer s.Close()
	var ft func(c *tbbsched.Context, r *int64, n int)
	ft = func(c *tbbsched.Context, r *int64, n int) {
		if n < 2 {
			*r = int64(n)
			return
		}
		var r1, r2 int64
		c.Spawn(tbbsched.FuncTask(func(c *tbbsched.Context) { ft(c, &r1, n-1) }))
		ft(c, &r2, n-2)
		c.Wait()
		*r = r1 + r2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		s.Run(func(c *tbbsched.Context) { ft(c, &r, benchFibN) })
		if r != 75025 {
			b.Fatal("bad fib")
		}
	}
}

func BenchmarkFig1FibOpenMP(b *testing.B) {
	tm := gomp.NewTeam(0)
	defer tm.Close()
	var fg func(tc *gomp.TC, r *int64, n int)
	fg = func(tc *gomp.TC, r *int64, n int) {
		if n < 2 {
			*r = int64(n)
			return
		}
		var r1, r2 int64
		tc.Task(func(tc *gomp.TC) { fg(tc, &r1, n-1) })
		fg(tc, &r2, n-2)
		tc.Taskwait()
		*r = r1 + r2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		tm.Parallel(func(tc *gomp.TC) {
			tc.Single(func() { fg(tc, &r, benchFibN) })
		})
		if r != 75025 {
			b.Fatal("bad fib")
		}
	}
}

// --- Fig. 2: tiled dense Cholesky under four schedulers ---

const (
	benchCholN  = 512
	benchCholNB = 64
)

func benchCholesky(b *testing.B, factor func(m *tile.Tiled) error) {
	b.Helper()
	src := tile.NewSPD(benchCholN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := tile.FromDense(src, benchCholNB)
		b.StartTimer()
		if err := factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CholeskySeq(b *testing.B) {
	benchCholesky(b, cholesky.Seq)
}

func BenchmarkFig2CholeskyQuarkNative(b *testing.B) {
	q := quark.New(0, quark.EngineNative)
	defer q.Delete()
	benchCholesky(b, func(m *tile.Tiled) error { return cholesky.RunQuark(q, m) })
}

func BenchmarkFig2CholeskyXKaapi(b *testing.B) {
	q := quark.New(0, quark.EngineKaapi)
	defer q.Delete()
	benchCholesky(b, func(m *tile.Tiled) error { return cholesky.RunQuark(q, m) })
}

func BenchmarkFig2CholeskyStatic(b *testing.B) {
	benchCholesky(b, func(m *tile.Tiled) error { return cholesky.Static(0, m) })
}

// --- Fig. 3: the two EPX parallel loops under loop schedulers ---

func benchLoops(b *testing.B, mk func() epx.Backend) {
	b.Helper()
	mesh := epx.NewBox(16, 16, 8, 1)
	st := epx.NewState(mesh, epx.Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.4, 0.8)
	st.Integrate()
	rep := epx.NewRepera(mesh, 12)
	rep.Build(st.Disp)
	back := mk()
	defer back.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back.Foreach(0, mesh.NumElems(), func(lo, hi int) { st.ElemForceRange(lo, hi) })
		back.Foreach(0, mesh.NumNodes(), func(lo, hi int) { rep.SortRange(st.Disp, lo, hi) })
	}
}

func BenchmarkFig3LoopsSeq(b *testing.B) {
	benchLoops(b, epx.NewSeqBackend)
}

func BenchmarkFig3LoopsKaapi(b *testing.B) {
	benchLoops(b, func() epx.Backend { return epx.NewKaapiBackend(0) })
}

func BenchmarkFig3LoopsOMPStatic(b *testing.B) {
	benchLoops(b, func() epx.Backend { return epx.NewGompBackend(0, gomp.Static, 0) })
}

func BenchmarkFig3LoopsOMPDynamic(b *testing.B) {
	benchLoops(b, func() epx.Backend { return epx.NewGompBackend(0, gomp.Dynamic, 16) })
}

// --- Fig. 6 / Fig. 8: EPX instances end to end ---

func benchEPX(b *testing.B, inst epx.Instance, mk func() epx.Backend) {
	b.Helper()
	inst.Steps = 2
	back := mk()
	defer back.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := epx.NewSim(inst)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Run(back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8EPXMeppenSeq(b *testing.B) {
	benchEPX(b, epx.MEPPEN(1), epx.NewSeqBackend)
}

func BenchmarkFig8EPXMeppenKaapi(b *testing.B) {
	benchEPX(b, epx.MEPPEN(1), func() epx.Backend { return epx.NewKaapiBackend(0) })
}

func BenchmarkFig8EPXMaxplaneSeq(b *testing.B) {
	benchEPX(b, epx.MAXPLANE(1), epx.NewSeqBackend)
}

func BenchmarkFig8EPXMaxplaneKaapi(b *testing.B) {
	benchEPX(b, epx.MAXPLANE(1), func() epx.Backend { return epx.NewKaapiBackend(0) })
}

// Fig. 6 measures the two kernels in isolation on the MEPPEN instance.
func BenchmarkFig6MeppenLoopelmKaapi(b *testing.B) {
	inst := epx.MEPPEN(1)
	mesh := epx.NewBox(inst.NX, inst.NY, inst.NZ, 1)
	st := epx.NewState(mesh, epx.Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.4, 0.8)
	st.Integrate()
	back := epx.NewKaapiBackend(0)
	defer back.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back.Foreach(0, mesh.NumElems(), func(lo, hi int) { st.ElemForceRange(lo, hi) })
	}
}

func BenchmarkFig6MeppenReperaKaapi(b *testing.B) {
	inst := epx.MEPPEN(1)
	mesh := epx.NewBox(inst.NX, inst.NY, inst.NZ, 1)
	st := epx.NewState(mesh, epx.Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.4, 0.8)
	st.Integrate()
	rep := epx.NewRepera(mesh, inst.Refine)
	rep.Build(st.Disp)
	back := epx.NewKaapiBackend(0)
	defer back.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back.Foreach(0, mesh.NumNodes(), func(lo, hi int) { rep.SortRange(st.Disp, lo, hi) })
	}
}

// --- Fig. 7: sparse skyline Cholesky ---

func benchSparse(b *testing.B, factor func(m *skyline.Matrix) error) {
	b.Helper()
	env := skyline.GenEnvelope(1536, 0.0359, 59462)
	src, err := skyline.NewSPD(env, 88, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := src.Clone()
		b.StartTimer()
		if err := factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SparseSeq(b *testing.B) {
	benchSparse(b, skyline.FactorSeq)
}

func BenchmarkFig7SparseKaapi(b *testing.B) {
	rt := xkaapi.New()
	defer rt.Close()
	benchSparse(b, func(m *skyline.Matrix) error { return skyline.FactorKaapi(rt, m) })
}

func BenchmarkFig7SparseOpenMP(b *testing.B) {
	tm := gomp.NewTeam(0)
	defer tm.Close()
	benchSparse(b, func(m *skyline.Matrix) error { return skyline.FactorGomp(tm, m) })
}

// --- Ablations ---

// Steal-request aggregation on/off, on the steal-heavy fib workload: with
// aggregation one combiner serves every pending thief of a victim in one
// pass; without it each thief steals for itself.
func BenchmarkAblationAggregationOn(b *testing.B) {
	rt := xkaapi.New()
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		rt.Run(func(p *xkaapi.Proc) { fib(p, &r, benchFibN) })
	}
}

func BenchmarkAblationAggregationOff(b *testing.B) {
	rt := xkaapi.New(xkaapi.WithoutAggregation())
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int64
		rt.Run(func(p *xkaapi.Proc) { fib(p, &r, benchFibN) })
	}
}

// Adaptive foreach (on-demand splitting) vs a task per chunk, the design
// argument of §II-D/§II-E: the adaptive loop creates tasks only when
// thieves actually ask, where the eager version spawns one per 1024-index
// chunk up front.
const ablLoopN = 1 << 20

func ablLoopBody(lo, hi int, sink *int64) {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i ^ (i >> 3))
	}
	atomic.AddInt64(sink, s)
}

func BenchmarkAblationLoopAdaptive(b *testing.B) {
	rt := xkaapi.New()
	defer rt.Close()
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Foreach(0, ablLoopN, func(_ *xkaapi.Proc, lo, hi int) {
			ablLoopBody(lo, hi, &sink)
		})
	}
}

func BenchmarkAblationLoopTaskPerChunk(b *testing.B) {
	rt := xkaapi.New()
	defer rt.Close()
	var sink int64
	const chunk = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(p *xkaapi.Proc) {
			for lo := 0; lo < ablLoopN; lo += chunk {
				lo := lo
				hi := lo + chunk
				if hi > ablLoopN {
					hi = ablLoopN
				}
				p.Spawn(func(*xkaapi.Proc) { ablLoopBody(lo, hi, &sink) })
			}
			p.Sync()
		})
	}
}

// Centralized ready list vs distributed deques at fixed (fine) grain: the
// same QUARK-style tiled Cholesky (n=384, nb=32) on quark's native engine,
// one shared ready list, and on the Kaapi engine, per-worker work-stealing
// deques — the isolated scheduler comparison behind Fig. 2.
func BenchmarkAblationCentralList(b *testing.B) {
	q := quark.New(0, quark.EngineNative)
	defer q.Delete()
	src := tile.NewSPD(384, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := tile.FromDense(src, 32)
		b.StartTimer()
		if err := cholesky.RunQuark(q, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistributedDeques(b *testing.B) {
	q := quark.New(0, quark.EngineKaapi)
	defer q.Delete()
	src := tile.NewSPD(384, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := tile.FromDense(src, 32)
		b.StartTimer()
		if err := cholesky.RunQuark(q, m); err != nil {
			b.Fatal(err)
		}
	}
}
