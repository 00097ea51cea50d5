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

// A child run inline past the cut-off starts in a virtual frame: no task
// descriptor, w.cur left at its nearest materialized ancestor, until the
// child first queues work. The tests below pin down each accounting rule of
// that scheme.

// occupyWorker parks one of rt's workers inside a job body that waits until
// the returned release is called, so the next job submitted runs alone on
// the other worker and its queued children are not stolen before the test
// lets them be. The caller must release before closing rt.
func occupyWorker(t *testing.T, rt *Runtime) (release func()) {
	t.Helper()
	var started, released atomic.Bool
	rt.Submit(func(*Worker) {
		started.Store(true)
		pollUntil(t, time.Minute, released.Load)
	})
	if !pollUntil(t, 10*time.Second, started.Load) {
		t.Fatal("occupying job never started")
	}
	return func() { released.Store(true) }
}

// waitJob waits for j at most d; a job still running by then means a frame
// whose count can no longer drain. The runtime is then left running rather
// than closed, since Close would wait on the stuck job too.
func waitJob(t *testing.T, j *Job, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("job did not finish within %v: a frame count never drained", d)
		return nil
	}
}

// TestSpawnCutoffVirtualFrameRunsAncestorChild: a ForEach wait inside a
// virtual frame executes a queued child of the frame's materialized
// ancestor. Completing it must credit the ancestor's shared counter, not
// the owner-local frameKids, which belongs to the virtual frame: otherwise
// the ancestor's Sync never drains; and the popped child must run in its
// own frame, not the virtual one. The loop body stages the interleaving
// in which a thief splits the loop off while the ancestor's children are
// still queued (a thief takes queued tasks before splitting, so it hides
// them for the duration of the split).
func TestSpawnCutoffVirtualFrameRunsAncestorChild(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	release := occupyWorker(t, rt)
	var qRan atomic.Int32
	var virtual, staged, split, qVirtual atomic.Bool
	q := func(w *Worker) {
		if w.virt {
			qVirtual.Store(true)
		}
		qRan.Add(1)
	}
	j := rt.Submit(func(w *Worker) {
		w.Spawn(q)                // queued
		w.Spawn(q)                // queued: the deque now holds P
		w.Spawn(func(w *Worker) { // inline
			virtual.Store(w.virt)
			w.ForEach(0, 2, LoopOpts{SeqGrain: 1}, func(w *Worker, lo, _ int64) {
				if lo == 1 { // the split-off slice, on the other worker
					split.Store(true)
					pollUntil(t, 10*time.Second, func() bool { return qRan.Load() == 2 })
					return
				}
				a, b := w.deque.pop(), w.deque.pop()
				release()
				if pollUntil(t, 10*time.Second, split.Load) {
					staged.Store(a != nil && b != nil)
				}
				w.deque.push(b)
				w.deque.push(a)
			})
		})
		w.Sync()
	})
	if err := waitJob(t, j, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if !virtual.Load() || !staged.Load() {
		t.Fatalf("scenario not staged: inline child virtual=%v, split with children queued=%v",
			virtual.Load(), staged.Load())
	}
	if got := qRan.Load(); got != 2 {
		t.Fatalf("ancestor's queued children ran %d times, want 2", got)
	}
	if qVirtual.Load() {
		t.Fatal("a task popped inside the virtual frame ran with the frame still marked virtual")
	}
	if s := rt.Stats(); s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance", s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestSpawnCutoffVirtualFrameMaterializes: an inline child three levels
// deep, still virtual, materializes once a thief has emptied the deque below
// P, so its next Spawn is queued. Its Sync then waits for that child only —
// the ancestor's child still queued beneath it is left alone — and control
// unwinds through the virtual levels with every frame count intact.
func TestSpawnCutoffVirtualFrameMaterializes(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	release := occupyWorker(t, rt)
	var done, virtual, materialized, kRan, kRanAtSync, q2RanAtSync, q2Ran atomic.Bool
	j := rt.Submit(func(w *Worker) {
		root := w.cur
		w.Spawn(func(*Worker) { pollUntil(t, 10*time.Second, done.Load) }) // stolen
		w.Spawn(func(*Worker) { q2Ran.Store(true) })                       // stays queued
		w.Spawn(func(w *Worker) {
			w.Spawn(func(w *Worker) {
				w.Spawn(func(w *Worker) { // depth 3, inline
					virtual.Store(w.virt && w.cur == root)
					release()
					if !pollUntil(t, 10*time.Second, func() bool { return w.deque.size() < 2 }) {
						return // the thief never came: reported below
					}
					w.Spawn(func(*Worker) { kRan.Store(true) })
					materialized.Store(!w.virt && w.cur != root && w.cur.job == root.job)
					w.Sync()
					kRanAtSync.Store(kRan.Load())
					q2RanAtSync.Store(q2Ran.Load())
					done.Store(true)
				})
			})
		})
		w.Sync()
	})
	if err := waitJob(t, j, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	rt.Close()
	if !virtual.Load() || !materialized.Load() {
		t.Fatalf("depth-3 inline child: virtual=%v, materialized after the steal=%v",
			virtual.Load(), materialized.Load())
	}
	if !kRanAtSync.Load() || q2RanAtSync.Load() {
		t.Fatalf("materialized frame's Sync: own child ran=%v, ancestor's queued child ran=%v; want true, false",
			kRanAtSync.Load(), q2RanAtSync.Load())
	}
	if !q2Ran.Load() {
		t.Fatal("ancestor's queued child never ran")
	}
	if s := rt.Stats(); s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance", s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestSpawnCutoffMaterializedPanic: an inline child that queued a child
// (materializing its frame) and then panics fails the job with its
// *PanicError; the queued child is cancelled, the frame's descriptor goes
// back on the worker's free list, and the counters balance.
func TestSpawnCutoffMaterializedPanic(t *testing.T) {
	withRuntime(t, Config{Workers: 1}, func(rt *Runtime) {
		var h Handle
		var freeBefore, freeAfter int
		var kRan atomic.Bool
		err := rt.Submit(func(w *Worker) {
			w.Spawn(func(*Worker) {}) // warm the free list
			w.Sync()
			freeBefore = w.freeLen
			w.Spawn(func(*Worker) {}) // queued: deque holds 1 == P
			w.Spawn(func(w *Worker) { // inline
				w.SpawnTask(func(*Worker) { kRan.Store(true) }, Access{&h, ModeWrite})
				panic("boom-materialized")
			})
			w.Sync()
			freeAfter = w.freeLen
		}).Wait()
		wantPanicErr(t, err, "boom-materialized", "")
		if kRan.Load() {
			t.Fatal("the panicking frame's queued child ran after the job failed")
		}
		if freeAfter != freeBefore {
			t.Fatalf("free list holds %d descriptors after the job, %d before: the materialized frame leaked its descriptor",
				freeAfter, freeBefore)
		}
		rt.Wait()
		s := rt.Stats()
		if s.Panicked != 1 || s.Cancelled != 2 {
			t.Fatalf("Panicked=%d Cancelled=%d, want 1 and 2", s.Panicked, s.Cancelled)
		}
		if s.Spawned != s.Executed+s.Cancelled {
			t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance", s.Spawned, s.Executed, s.Cancelled)
		}
	})
}

// TestSpawnCutoffVirtualFrameSpawnTask: dataflow tasks spawned from a
// virtual frame materialize it and are its children: they run in access
// order, and its Sync waits for both while leaving the ancestor's queued
// child alone.
func TestSpawnCutoffVirtualFrameSpawnTask(t *testing.T) {
	withRuntime(t, Config{Workers: 1}, func(rt *Runtime) {
		var h Handle
		var virtual, qRan, qRanEarly atomic.Bool
		var x, y, yAtSync int64
		err := rt.Submit(func(w *Worker) {
			w.Spawn(func(*Worker) { qRan.Store(true) }) // queued: deque holds 1 == P
			w.Spawn(func(w *Worker) {                   // inline
				virtual.Store(w.virt)
				w.SpawnTask(func(*Worker) { x = 7 }, Access{&h, ModeWrite})
				w.SpawnTask(func(*Worker) { y = 6 * x }, Access{&h, ModeRead})
				w.Sync()
				yAtSync = y
				qRanEarly.Store(qRan.Load())
			})
			w.Sync()
		}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !virtual.Load() {
			t.Fatal("inline child did not start in a virtual frame")
		}
		if yAtSync != 42 {
			t.Fatalf("after the virtual frame's Sync y = %d, want 42 (writer then reader)", yAtSync)
		}
		if qRanEarly.Load() || !qRan.Load() {
			t.Fatalf("ancestor's queued child: ran before the inner Sync returned=%v, ran at all=%v",
				qRanEarly.Load(), qRan.Load())
		}
		rt.Wait()
		if s := rt.Stats(); s.Spawned != s.Executed+s.Cancelled {
			t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance", s.Spawned, s.Executed, s.Cancelled)
		}
	})
}
