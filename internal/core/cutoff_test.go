package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// Tests of Spawn's load-based cut-off: once the spawning worker's deque
// holds NumWorkers tasks, a child runs inline at its spawn point instead of
// being pushed.

// TestSpawnCutoffFanOutBound: a flat fan-out of 8P Spawns at Workers: P
// never leaves more than P Spawn-created tasks queued on the spawner, and
// every child runs exactly once. At one worker the split is deterministic:
// the first child is queued, the other 8P-1 run inline before Sync.
func TestSpawnCutoffFanOutBound(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		withRuntime(t, Config{Workers: p}, func(rt *Runtime) {
			n := 8 * p
			runs := make([]atomic.Int32, n)
			var maxQueued int64
			var ranBeforeSync int32
			err := rt.Submit(func(w *Worker) {
				for i := range runs {
					w.Spawn(func(*Worker) { runs[i].Add(1) })
					maxQueued = max(maxQueued, w.deque.size())
				}
				for i := range runs {
					ranBeforeSync += runs[i].Load()
				}
				w.Sync()
			}).Wait()
			if err != nil {
				t.Fatalf("P=%d: fan-out job: %v", p, err)
			}
			if maxQueued > int64(p) {
				t.Fatalf("P=%d: %d Spawn-created tasks queued at once, want <= %d", p, maxQueued, p)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("P=%d: child %d ran %d times, want exactly once", p, i, got)
				}
			}
			if p == 1 && ranBeforeSync != int32(n-1) {
				t.Fatalf("P=1: %d children ran before Sync, want %d (all but the queued first)", ranBeforeSync, n-1)
			}
			rt.Close() // workers publish cached counters on exit
			if s := rt.Stats(); s.Spawned != s.Executed+s.Cancelled {
				t.Fatalf("P=%d: spawned=%d executed=%d cancelled=%d do not balance",
					p, s.Spawned, s.Executed, s.Cancelled)
			}
		})
	}
}

// TestSpawnCutoffInlinePanic: a child run inline that panics goes through
// the same panic barrier as a popped one — the job fails with the child's
// *PanicError, control returns to the parent right after the Spawn, the
// child still queued is cancelled, and the counters balance.
func TestSpawnCutoffInlinePanic(t *testing.T) {
	withRuntime(t, Config{Workers: 1}, func(rt *Runtime) {
		var queuedRan, afterSpawn, sawFailed atomic.Bool
		err := rt.Submit(func(w *Worker) {
			w.Spawn(func(*Worker) { queuedRan.Store(true) }) // queued: deque was empty
			w.Spawn(func(*Worker) { panic("boom-inline") })  // inline: deque holds 1 == P
			afterSpawn.Store(true)
			sawFailed.Store(w.JobFailed())
			w.Sync()
		}).Wait()
		wantPanicErr(t, err, "boom-inline", "")
		if !afterSpawn.Load() {
			t.Fatal("parent code after the panicking inline Spawn did not run")
		}
		if !sawFailed.Load() {
			t.Fatal("JobFailed() = false right after the inline child panicked")
		}
		if queuedRan.Load() {
			t.Fatal("queued child ran after the job failed")
		}
		rt.Wait()
		s := rt.Stats()
		if s.Panicked != 1 || s.Cancelled != 1 {
			t.Fatalf("Panicked=%d Cancelled=%d, want 1 and 1", s.Panicked, s.Cancelled)
		}
		if s.Spawned != s.Executed+s.Cancelled {
			t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance",
				s.Spawned, s.Executed, s.Cancelled)
		}
	})
}

// fibBoth is fork-join fib spawning both children, so children run inline
// past the cut-off themselves spawn, run inline and Sync.
func fibBoth(w *Worker, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	var a, b int64
	w.Spawn(func(w *Worker) { a = fibBoth(w, n-1) })
	w.Spawn(func(w *Worker) { b = fibBoth(w, n-2) })
	w.Sync()
	return a + b
}

// TestSpawnCutoffNestedSync: an inline child's Sync waits for its own
// subtree only. At one worker the parent's queued child must still be
// untouched when the inline sibling's Sync returns; nested fib at 4
// workers, where inline, popped and stolen children mix at every level,
// must still add up.
func TestSpawnCutoffNestedSync(t *testing.T) {
	withRuntime(t, Config{Workers: 1}, func(rt *Runtime) {
		var queuedRan, queuedRanEarly atomic.Bool
		var sub int64
		rt.RunRoot(func(w *Worker) {
			w.Spawn(func(*Worker) { queuedRan.Store(true) })
			w.Spawn(func(w *Worker) { // inline
				sub = fibBoth(w, 10)
				queuedRanEarly.Store(queuedRan.Load())
			})
			w.Sync()
		})
		if queuedRanEarly.Load() {
			t.Fatal("the inline child's Sync ran its parent's queued child")
		}
		if !queuedRan.Load() || sub != fibSeq(10) {
			t.Fatalf("queued child ran=%v, inline subtree fib(10)=%d want %d", queuedRan.Load(), sub, fibSeq(10))
		}
	})
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var r int64
		rt.RunRoot(func(w *Worker) { r = fibBoth(w, 22) })
		if want := fibSeq(22); r != want {
			t.Fatalf("fib(22) = %d, want %d", r, want)
		}
		rt.Close() // workers publish cached counters on exit
		if s := rt.Stats(); s.Spawned != s.Executed || s.Cancelled != 0 {
			t.Fatalf("spawned=%d executed=%d cancelled=%d, want spawned == executed",
				s.Spawned, s.Executed, s.Cancelled)
		}
	})
}

// TestSpawnCutoffFanOutSpreads is the no-serialization guard: a flat
// fan-out of 4P tasks sleeping ~1 ms each at Workers: P must not collapse
// onto the spawner. The P queued tasks stay available to thieves while the
// spawner runs the rest inline, so at least two workers execute children.
func TestSpawnCutoffFanOutSpreads(t *testing.T) {
	for _, p := range []int{2, 4} {
		withRuntime(t, Config{Workers: p}, func(rt *Runtime) {
			var seen [8]atomic.Bool
			rt.RunRoot(func(w *Worker) {
				for range 4 * p {
					w.Spawn(func(w *Worker) {
						seen[w.ID()].Store(true)
						time.Sleep(time.Millisecond)
					})
				}
				w.Sync()
			})
			ids := 0
			for i := range seen {
				if seen[i].Load() {
					ids++
				}
			}
			if ids < 2 {
				t.Fatalf("P=%d: %d-task fan-out ran on %d worker(s), want >= 2", p, 4*p, ids)
			}
		})
	}
}
