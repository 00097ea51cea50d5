package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"xkaapi"
)

// counters is a snapshot of the scheduler and allocator counters, taken
// only at phase boundaries (ReadMemStats stops the world).
type counters struct {
	at    time.Time
	sched xkaapi.Stats
	mem   runtime.MemStats
}

func snapshot(rt *xkaapi.Runtime) counters {
	c := counters{at: time.Now(), sched: rt.Stats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// phase is one measured stretch of a workload: per-operation times plus
// the counter deltas over the whole stretch.
type phase struct {
	ms     []float64 // per-operation time
	failed int       // operations whose output check failed
	wall   time.Duration
	sched  xkaapi.Stats // delta of rt.Stats over the phase
	allocs uint64       // heap objects allocated over the phase
	bytes  uint64       // heap bytes allocated over the phase
	gcs    uint32       // completed GC cycles over the phase
}

func (p *phase) ops() int { return len(p.ms) }

func (p *phase) delta(a, b counters) {
	p.wall = b.at.Sub(a.at)
	s := b.sched
	sub := func(x *int64, y int64) { *x -= y }
	sub(&s.Spawned, a.sched.Spawned)
	sub(&s.Executed, a.sched.Executed)
	sub(&s.ReadyReleases, a.sched.ReadyReleases)
	sub(&s.StealRequests, a.sched.StealRequests)
	sub(&s.StealHits, a.sched.StealHits)
	sub(&s.StealProbes, a.sched.StealProbes)
	sub(&s.EpochSkips, a.sched.EpochSkips)
	sub(&s.Combines, a.sched.Combines)
	sub(&s.CombineServed, a.sched.CombineServed)
	sub(&s.Splits, a.sched.Splits)
	sub(&s.SplitTasks, a.sched.SplitTasks)
	sub(&s.Parks, a.sched.Parks)
	sub(&s.Panicked, a.sched.Panicked)
	sub(&s.Cancelled, a.sched.Cancelled)
	p.sched = s
	p.allocs = b.mem.Mallocs - a.mem.Mallocs
	p.bytes = b.mem.TotalAlloc - a.mem.TotalAlloc
	p.gcs = b.mem.NumGC - a.mem.NumGC
}

// measure runs op on rt back to back — a closed loop with one caller —
// until d has passed and at least minOps operations completed (giving up
// at 4d). op returns the operation's own time, taken around the call into
// the program only, and an error when its output check failed; the check
// runs outside that time. rt is drained and checked afterwards, outside
// the phase's counters.
func measure(d time.Duration, minOps int, rt *xkaapi.Runtime, op func(i int) (time.Duration, error)) (phase, error) {
	var p phase
	runtime.GC()
	start := snapshot(rt)
	for i := 0; ; i++ {
		el := time.Since(start.at)
		if (el >= d && i >= minOps) || el >= 4*d {
			break
		}
		p.record(op(i))
	}
	p.delta(start, snapshot(rt))
	return p, drained(rt)
}

// paired runs the sequential baseline and the 1-worker runtime in rounds
// for d: round i is rtOp(i) followed by as many seqOp(i) as it takes to
// match its time, and yields the round's ratio, the rtOp time over the
// mean seqOp time. Both sides of a ratio thus run within a fraction of a
// second of each other, so host load that comes and goes in stretches of
// seconds (neighbours on a shared host) cancels out of it. Only rt's
// counters are kept; they see rtOp alone.
func paired(d time.Duration, minOps int, rt *xkaapi.Runtime, seqOp, rtOp func(i int) (time.Duration, error)) (seq, t1 phase, rounds []float64, err error) {
	runtime.GC()
	start := snapshot(rt)
	for i := 0; ; i++ {
		el := time.Since(start.at)
		if (el >= d && min(seq.ops(), t1.ops()) >= minOps) || el >= 4*d {
			break
		}
		t, err := rtOp(i)
		t1.record(t, err)
		var spent time.Duration
		n := 0
		for ; spent < t; n++ {
			ts, err := seqOp(i)
			seq.record(ts, err)
			spent += ts
		}
		rounds = append(rounds, ratio(float64(t)*float64(n), float64(spent)))
	}
	end := snapshot(rt)
	t1.delta(start, end)
	seq.wall = t1.wall
	return seq, t1, rounds, drained(rt)
}

// record adds one operation's time and check outcome.
func (p *phase) record(t time.Duration, err error) {
	if err != nil {
		p.failed++
		report("check failed: %v", err)
	}
	p.ms = append(p.ms, ms(t))
}

// drained waits for rt to finish every submitted job and checks the
// scheduler's conservation invariant Spawned == Executed + Cancelled. The
// counters are exact only once every worker has gone idle and flushed its
// batch, so the check polls briefly.
func drained(rt *xkaapi.Runtime) error {
	if err := rt.Wait(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	var s xkaapi.Stats
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if s = rt.Stats(); s.Spawned == s.Executed+s.Cancelled {
			return nil
		}
	}
	return fmt.Errorf("drain: spawned %d != executed %d + cancelled %d", s.Spawned, s.Executed, s.Cancelled)
}

// closeRuntime closes rt after checking it drained.
func closeRuntime(rt *xkaapi.Runtime) error {
	err := drained(rt)
	rt.Close()
	return err
}

// settled waits for the goroutine count to fall back to base — the count
// before any runtime was built — after every runtime has been closed. A
// closed pool that leaves a worker, parker or collector goroutine behind
// fails the run.
func settled(base int) error {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		return fmt.Errorf("goroutine leak: %d running after close, %d before setup", n, base)
	}
	return nil
}

// report prints a diagnostic line to standard error.
func report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
