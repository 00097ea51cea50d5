package core

import (
	"sync"
	"testing"
)

// BenchmarkSpawnExecute measures the full life cycle of an empty fork-join
// task on one worker: allocation (pooled), push, pop, execute, complete,
// recycle. This is the constant the paper keeps near "ten cycles" for the
// enqueue alone; everything below ~100ns keeps fib-class workloads usable.
func BenchmarkSpawnExecute(b *testing.B) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	b.ResetTimer()
	rt.RunRoot(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.Spawn(func(*Worker) {})
			w.Sync()
		}
	})
}

// BenchmarkSpawnBatch amortizes the sync: 64 tasks per sync. At one worker
// the load-based cut-off makes that 1 push plus 63 children run inline at
// their spawn point per Sync.
func BenchmarkSpawnBatch(b *testing.B) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	b.ResetTimer()
	rt.RunRoot(func(w *Worker) {
		for i := 0; i < b.N; i += 64 {
			for j := 0; j < 64; j++ {
				w.Spawn(func(*Worker) {})
			}
			w.Sync()
		}
	})
}

// BenchmarkSpawnDataflow measures a dataflow task with one RW access
// (frontier update, wait-count bookkeeping, successor release).
func BenchmarkSpawnDataflow(b *testing.B) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	var h Handle
	b.ResetTimer()
	rt.RunRoot(func(w *Worker) {
		for i := 0; i < b.N; i += 16 {
			for j := 0; j < 16; j++ {
				w.SpawnTask(func(*Worker) {}, Access{&h, ModeReadWrite})
			}
			w.Sync()
		}
	})
}

// Ablation: the owner-side cost of the Chase–Lev deque
// versus a plain mutex-protected deque. The lock-free protocol keeps the
// owner path at a handful of uncontended atomics — including the pop of the
// last remaining task, which the old T.H.E. variant resolved under a mutex
// and which is exactly the case a push-one/pop-one task cycle hits — so
// task creation stays cheap under §II-C.

func BenchmarkDequeChaseLevPushPop(b *testing.B) {
	var d deque
	d.init()
	t := &Task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(t)
		if d.pop() == nil {
			b.Fatal("lost task")
		}
	}
}

type mutexDeque struct {
	mu sync.Mutex
	q  []*Task
}

func (d *mutexDeque) push(t *Task) {
	d.mu.Lock()
	d.q = append(d.q, t)
	d.mu.Unlock()
}

func (d *mutexDeque) pop() *Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return nil
	}
	t := d.q[len(d.q)-1]
	d.q = d.q[:len(d.q)-1]
	return t
}

func BenchmarkDequeMutexPushPop(b *testing.B) {
	var d mutexDeque
	t := &Task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(t)
		if d.pop() == nil {
			b.Fatal("lost task")
		}
	}
}

// Contended variants: a thief hammers the steal side while the owner
// push/pops. This is where the lock-free protocol earns its keep — the
// owner never blocks behind a thief (worst case it loses one head CAS),
// while the mutex deque serializes owner against thief on every operation.

func BenchmarkDequeChaseLevContendedOwner(b *testing.B) {
	var d deque
	d.init()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.steal()
		}
	}()
	tasks := [2]Task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(&tasks[0])
		d.push(&tasks[1])
		d.pop()
		d.pop()
	}
	b.StopTimer()
	close(stop)
}

func BenchmarkDequeMutexContendedOwner(b *testing.B) {
	var d mutexDeque
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.mu.Lock()
			if len(d.q) > 0 {
				d.q = d.q[1:]
			}
			d.mu.Unlock()
		}
	}()
	tasks := [2]Task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(&tasks[0])
		d.push(&tasks[1])
		d.pop()
		d.pop()
	}
	b.StopTimer()
	close(stop)
}

// BenchmarkForEach measures the adaptive loop overhead on a trivial body.
// The loop body is hoisted out of the b.N loop: a closure literal inside it
// captures sink and escape-allocates once per iteration, which used to show
// up as the loop's only alloc and masked the runtime's own zero-allocation
// steady state (locked in by bench_gates.json).
func BenchmarkForEach(b *testing.B) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	var sink int64
	body := func(_ *Worker, lo, hi int64) {
		s := int64(0)
		for k := lo; k < hi; k++ {
			s += k
		}
		sink += s
	}
	b.ResetTimer()
	rt.RunRoot(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.ForEach(0, 1<<16, LoopOpts{}, body)
		}
	})
	_ = sink
}

// BenchmarkIntervalExtract measures the CAS-packed interval operation that
// every foreach chunk claim performs.
func BenchmarkIntervalExtract(b *testing.B) {
	var iv Interval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv.Reset(0, 1<<20)
		for {
			if _, _, ok := iv.ExtractFront(1 << 16); !ok {
				break
			}
		}
	}
}

// BenchmarkFleetSubmit measures the external submission path through the
// fleet router — least-loaded placement over 4 shards, the MPSC inbox, the
// wake protocol — in windows so the pool drains without a Wait per job.
// This is the per-request constant a sharded server adds on top of the
// single-runtime Submit path.
func BenchmarkFleetSubmit(b *testing.B) {
	f := NewFleet(FleetConfig{Shards: 4, ShardSize: 1,
		Runtime: Config{DisablePinning: true}})
	defer f.Close()
	const window = 256
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		n := min(window, b.N-i)
		for j := 0; j < n; j++ {
			f.Submit(func(*Worker) {})
		}
		if err := f.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
