package core

import (
	"sync"
	"sync/atomic"
)

// Mode describes how a task accesses a Handle. The main access modes of the
// paper (§II-B) are read, write, exclusive (read-write) and cumulative write
// (reduction). The runtime uses modes to compute true (read-after-write)
// dependencies between tasks sharing a memory region.
type Mode uint8

const (
	// ModeRead declares a read of the current version of the handle.
	ModeRead Mode = iota
	// ModeWrite declares production of a new version. The task must wait for
	// the previous producer and every reader of the previous version.
	ModeWrite
	// ModeReadWrite declares an exclusive in-place update: semantically a
	// read of the current version plus production of the next one.
	ModeReadWrite
	// ModeCumulWrite declares a cumulative (commutative, associative) write.
	// Cumulative writers of the same generation run concurrently with each
	// other but are ordered against readers and exclusive writers.
	ModeCumulWrite
)

// String returns the conventional short name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "R"
	case ModeWrite:
		return "W"
	case ModeReadWrite:
		return "RW"
	case ModeCumulWrite:
		return "CW"
	}
	return "?"
}

// Access pairs a Handle with the Mode a task uses on it.
type Access struct {
	Handle *Handle
	Mode   Mode
}

const (
	flagHasAccess uint8 = 1 << iota // task registered dataflow accesses
	flagLoop                        // task is a loop-slice task (diagnostics)
	flagRoot                        // task is a job root: completion finishes the job
)

// Task is the unit of scheduling. Tasks are created by Worker.Spawn (fork-
// join) or Worker.SpawnTask (dataflow) and recycled through per-worker free
// lists, so a Task must never be retained after its body has run.
//
// Lifecycle: allocated → (wait counter drains) → pushed ready → executed →
// children drained (fully strict) → completed (successors released, parent
// decremented) → recycled.
//
// A child run inline past the spawn cut-off (Worker.Spawn) skips that
// cycle: it runs in a virtual frame with no Task at all. Its frame is
// materialized — given a Task that is never queued, has no parent and only
// carries the job and the frame counter its queued children credit — when
// it first queues a child; that Task is drained and recycled when the
// inline child returns.
//
// Descriptors are carved from slabs ([taskSlabSize]Task arrays, slab.go),
// so the struct is padded to exactly two cache lines: children and wait are
// RMW'd by thieves and the owner concurrently, and without the pad two
// adjacent descriptors of one slab would false-share a line between two
// workers. The trailing pad also satisfies the atomicpad layout check for
// atomic-holding array elements.
type Task struct {
	body   func(*Worker)
	parent *Task
	next   *Task // free-list link
	job    *Job  // owning job, inherited from the parent (failure/cancel scope)

	// children is the shared half of the frame counter: it moves only when a
	// child completes on a worker other than the one executing this task
	// (stolen subtree, or a dataflow release landing elsewhere), and then
	// only downward. The executing worker's owner-local Worker.frameKids
	// carries the spawn credits; frameKids + children.Load() is the exact
	// live-children count, and execute zeroes any residue before completion.
	children atomic.Int32
	wait     atomic.Int32 // outstanding dependencies + creation bias
	flags    uint8

	// Dataflow state, used only when flags&flagHasAccess != 0.
	mu      sync.Mutex
	seq     uint32 // generation stamp, advanced on every recycle; guards stale taskRefs
	done    bool
	everAcc bool // had accesses in some lifetime: stale taskRefs may probe seq under mu
	succ    []*Task
	accs    []Access

	_ [16]byte // pad to 128 B: see the slab note above (checked in slab_test.go)
}

// taskRef is a possibly-stale reference to a task held in a Handle's
// dependency lists. Because tasks are recycled, the reference carries the
// sequence number observed at registration; a mismatch means the task
// completed and was reused, i.e. the dependency is already satisfied.
type taskRef struct {
	t   *Task
	seq uint32
}

// depOn makes t wait for d if d is still live. It returns after either
// registering t as a successor of d (incrementing t's wait count) or
// observing that d already completed.
func depOn(t *Task, ref taskRef) {
	d := ref.t
	if d == nil || d == t {
		// Nil frontier entry, or a second access of the same task to the
		// same handle: a task never waits on itself.
		return
	}
	d.mu.Lock()
	if d.seq == ref.seq && !d.done {
		d.succ = append(d.succ, t)
		t.wait.Add(1)
	}
	d.mu.Unlock()
}
