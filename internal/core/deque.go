//xk:hotpath — the Chase–Lev deque is lock-free by construction; xkvet
// rejects any mutex, channel, sleep, fmt or goroutine launch added here.

package core

import (
	"sync/atomic"
)

const dequeInitCap = 256 // initial slots; must be a power of two

// deque is the per-worker work-stealing deque, a lock-free Chase–Lev
// circular deque (Chase, Lev: "Dynamic Circular Work-Stealing Deque",
// SPAA 2005) in the role the paper assigns to Cilk's T.H.E. protocol
// (§II-C): the owner pushes and pops at the bottom, thieves steal from the
// top, oldest task first, and the two only meet on the last remaining task.
// Unlike T.H.E. there is no mutex anywhere — thieves claim the top slot
// with a CAS on head, the owner claims a contended last task with the same
// CAS, and buffer growth publishes a fresh buffer through an atomic
// pointer. The paper's steal-request aggregation (request.go) still
// serializes *aggregated* thieves per victim behind the combiner election
// lock, but the deque itself never blocks anyone.
//
// Memory-ordering argument, in Go's memory model (all sync/atomic
// operations are sequentially consistent, so the weak-memory fences of the
// original algorithm and of Lê et al.'s C11 port are implied):
//
//   - head only ever increases, and only by a successful CompareAndSwap.
//     A claim of index h is therefore unique: whoever wins the CAS h→h+1
//     owns the task at slot h, whether thief (steal) or owner (pop of the
//     last task).
//   - A thief reads a slot only after observing head h < tail: the owner's
//     slot store for index h is sequenced before its tail.Store(h+1), so
//     the observed tail orders the slot write before the thief's read.
//   - A slot at index h can only be overwritten by the push of index
//     h+capacity, and push never lets tail-head exceed the capacity of the
//     buffer it writes to, so head must first move past h — which fails
//     every outstanding CAS on h. A stale slot read is thus always
//     discarded. (Slots are atomic.Pointer values so this benign stale
//     read is also well-defined for the race detector.)
//   - grow copies [head, tail) into the new buffer before publishing it;
//     head is monotone, so any index a thief can still claim from the old
//     buffer holds the same task in the new one.
//
// On top of the circular buffer sits next, a single-task fast slot in the
// spirit of the Go scheduler's runnext, tuned for the spawn-sync cycle —
// push one task, immediately pop it back, the paper's dominant fork-join
// pattern. A push fills the slot only when the whole deque was empty;
// otherwise it takes the ordinary buffer path. That choice pins down the
// ordering invariant: whenever the slot is occupied, every buffer task was
// pushed after it (the buffer was empty when the slot filled, and only the
// owner adds tasks), so the slot holds the deque's OLDEST task. The owner's
// pop therefore drains the buffer (newest) first and swaps the slot out
// last; a thief tries the slot (oldest) first and falls back to the buffer.
// The empty-deque spawn then costs one uncontended store and its pop one
// XCHG on the same word instead of a buffer store, a bottom publish and a
// head CAS — while a batch of pushes costs exactly what it did before.
//
// Slot correctness is simpler than the buffer's: it is a single word, every
// non-nil write is the owner's push (legal because the owner re-fills it
// only after observing it nil, and thieves only ever clear it), and every
// claim — owner Swap, thief CompareAndSwap — removes the current occupant
// atomically, so each pushed task is handed out exactly once. A thief whose
// CAS succeeds against a recycled same-pointer Task is claiming the slot's
// *current* occupant — a legitimately queued new incarnation, not the stale
// one it first loaded — which is just a steal of that queued task; the
// generation-stamp argument (task.go seq) is not even needed here.
type deque struct {
	next atomic.Pointer[Task] // fast slot: oldest task when occupied (owner store/Swap, thief CAS)
	_    [56]byte             // keep the fast slot off the head line
	head atomic.Int64         // top: index of the next task to steal (CAS-claimed)
	_    [56]byte             // keep the thief-side and owner-side words on separate lines
	tail atomic.Int64         // bottom: index of the next free slot (owner only)
	_    [56]byte
	buf  atomic.Pointer[dequeBuf]
}

type dequeBuf struct {
	mask int64
	slot []atomic.Pointer[Task]
}

func (d *deque) init() {
	d.buf.Store(&dequeBuf{mask: dequeInitCap - 1, slot: make([]atomic.Pointer[Task], dequeInitCap)})
}

// size is the number of queued tasks, fast slot included. For a thief it
// is a racy estimate, used only to probe victims before posting a steal
// request. For the owner it is exact up to tasks stolen since the loads:
// the owner is the only writer of tail and of a non-nil fast slot, and
// outside popBuf head never exceeds tail. Spawn's load-based cut-off reads
// it on the owner side.
func (d *deque) size() int64 {
	n := d.tail.Load() - d.head.Load()
	if n < 0 {
		n = 0
	}
	if d.next.Load() != nil {
		n++
	}
	return n
}

// push appends t at the bottom. Owner only. An empty deque routes t into
// the fast slot; otherwise t goes to the circular buffer, which keeps the
// slot-holds-the-oldest invariant (see the type comment). The emptiness
// check is sound against racing thieves: the owner's tail read is exact,
// head never exceeds tail while the owner is outside popBuf, and thieves
// only remove — so head >= tail proves the buffer empty, and a nil slot
// stays nil until this store (only the owner writes non-nil). A thief that
// drains the buffer right after the check merely sends t down the buffer
// path, which is always correct.
func (d *deque) push(t *Task) {
	if d.next.Load() == nil && d.head.Load() >= d.tail.Load() {
		d.next.Store(t)
		return
	}
	d.pushBuf(t)
}

// pushBuf appends t at the bottom of the circular buffer. Owner only. The
// paper reports a ~10 cycle enqueue; this path is two atomic loads, one
// atomic store into the buffer, and one atomic store of the new bottom —
// no CAS, no lock.
func (d *deque) pushBuf(t *Task) {
	b := d.tail.Load()
	buf := d.buf.Load()
	if b-d.head.Load() > buf.mask { // full
		d.grow(b)
		buf = d.buf.Load()
	}
	buf.slot[b&buf.mask].Store(t)
	d.tail.Store(b + 1)
}

// grow doubles the buffer and publishes it through the atomic pointer.
// Owner only, lock-free: thieves keep reading the old buffer until they
// reload the pointer, which is safe because every index in [head, tail) is
// copied before the publish and head never decreases — an index still
// claimable from the old buffer holds the identical task in the new one.
func (d *deque) grow(b int64) {
	old := d.buf.Load()
	nbuf := &dequeBuf{
		mask: old.mask*2 + 1,
		slot: make([]atomic.Pointer[Task], (old.mask+1)*2),
	}
	for i := d.head.Load(); i < b; i++ {
		nbuf.slot[i&nbuf.mask].Store(old.slot[i&old.mask].Load())
	}
	d.buf.Store(nbuf)
}

// pop removes and returns the most recently pushed task, or nil if the
// deque is empty or the task was lost to a thief. Owner only, lock-free.
// The buffer holds the newer tasks whenever the fast slot is occupied, so
// LIFO order means draining the buffer first; the slot is swapped out last
// (a thief's CAS and this Swap atomically arbitrate the claim — only the
// owner stores non-nil, so the slot either still holds the loaded task or
// a thief just took it, and Swap settles which).
func (d *deque) pop() *Task {
	if t := d.popBuf(); t != nil {
		return t
	}
	if d.next.Load() != nil {
		if t := d.next.Swap(nil); t != nil {
			return t
		}
	}
	// An empty pop is the owner's quiescence point, where a buffer grown
	// for a past frontier is released; successful pops (including the slot
	// path above) never pay the check.
	d.shrink()
	return nil
}

// popBuf removes and returns the bottom task of the circular buffer, or
// nil if it is empty or the task was lost to a thief. Owner only.
//
// The owner is the only writer of tail, and head is monotone, so an
// initial head >= tail read proves the buffer empty without touching tail.
// A single remaining task is claimed by the same head CAS thieves use —
// the arbiter for index h is always the CAS h→h+1, so the task goes to
// exactly one side. Only the two-or-more case uses the Chase–Lev
// decrement-first dance: publish the new bottom, then re-read head to see
// whether thieves caught up while we were doing it.
//
// Every nil return leaves the buffer in the canonical empty state
// (head == tail); the release of a grown buffer (shrink) is pop's job, so
// a drain that ends in the fast slot does not pay it mid-pop.
func (d *deque) popBuf() *Task {
	b := d.tail.Load() - 1
	h := d.head.Load()
	if h > b {
		return nil // empty (h == b+1): only the owner adds tasks
	}
	buf := d.buf.Load()
	if h == b {
		// Single task: race thieves for it with the claiming CAS. No tail
		// update needed — on either outcome head becomes b+1 == tail, the
		// canonical empty state. Only the (rare, contended) losing outcome
		// shrinks: the winning pop is the spawn-sync hot path, and the next
		// empty pop will release the buffer anyway.
		t := buf.slot[b&buf.mask].Load()
		if d.head.CompareAndSwap(b, b+1) {
			return t
		}
		return nil
	}
	// At least two tasks were present: take the bottom one. Publish the
	// decremented bottom first so a thief's head < tail check cannot hand
	// out index b concurrently with us taking it.
	d.tail.Store(b)
	h = d.head.Load()
	t := buf.slot[b&buf.mask].Load()
	if h < b {
		// At least one task remains above ours: no thief can claim index b,
		// because claiming it requires head == b first.
		return t
	}
	if h > b {
		// Thieves drained everything, index b included, before our
		// decrement was visible. Restore the canonical empty state.
		d.tail.Store(b + 1)
		return nil
	}
	// h == b: ours is the last task and thieves may be racing for it.
	if !d.head.CompareAndSwap(b, b+1) {
		d.tail.Store(b + 1)
		return nil // a thief won the claim
	}
	d.tail.Store(b + 1)
	return t
}

// shrink resets a grown buffer back to the initial capacity once the owner
// observes its deque empty, so a worker that once held a huge frontier (a
// wide fan-out, a big loop) does not keep the doubled buffers for the rest
// of the runtime's life. Owner only, and only from the empty state
// (head >= tail): no live index exists, so no thief can be claiming a slot
// — a thief that later observes tail > head is, by seq-cst ordering,
// guaranteed to reload the buffer pointer published before that push (the
// same publication argument as grow). Slots are fresh, so stale *Task
// pointers in the old buffer are unreachable and collectable immediately.
//
// Every pop path that returns nil ends in the canonical empty state and
// calls shrink — including the thief-won races — so "pop returned nil"
// deterministically implies "buffer is back at the initial capacity".
// Successful pops never pay the check: the owner's next miss releases the
// memory, which keeps the spawn-sync hot path (push one, pop it back)
// untouched.
func (d *deque) shrink() {
	if d.buf.Load().mask == dequeInitCap-1 {
		return // still at the initial size: nothing to release
	}
	d.buf.Store(&dequeBuf{mask: dequeInitCap - 1, slot: make([]atomic.Pointer[Task], dequeInitCap)})
}

// steal removes and returns the oldest task, or nil if the deque is empty.
// Any thief may call it concurrently with the owner and with other thieves.
// An occupied fast slot holds the deque's oldest task, so it is tried
// first, claimed with a CAS (never a Swap: a Swap could yank a task the
// thief never observed out from under a concurrent owner push); the buffer,
// oldest-first as always, is the fallback.
func (d *deque) steal() *Task {
	if t := d.next.Load(); t != nil && d.next.CompareAndSwap(t, nil) {
		return t
	}
	return d.stealBuf()
}

// stealBuf removes and returns the oldest task of the circular buffer, or
// nil if it is empty; claims are arbitrated by the CAS on head. A failed
// CAS means someone else (a thief, or the owner popping the last task)
// claimed the observed index; the loop retries with fresh indices until it
// wins or finds the buffer empty.
func (d *deque) stealBuf() *Task {
	for {
		h := d.head.Load()
		b := d.tail.Load()
		if h >= b {
			return nil // empty (b may trail h by one during an owner pop)
		}
		buf := d.buf.Load()
		t := buf.slot[h&buf.mask].Load()
		if d.head.CompareAndSwap(h, h+1) {
			return t
		}
	}
}
