package core

import (
	"strconv"
	"testing"
)

// FuzzDequeOps drives one deque through a byte-coded sequence of owner
// pushes and pops and (single-threaded) thief steals, checked after every
// operation against a sequential model: a slice of the queued tasks in
// push order. The owner pops the newest task (LIFO), a thief steals the
// oldest (FIFO), size is exact, an occupied fast slot holds the oldest
// queued task, and an empty pop leaves the buffer back at its initial
// capacity.
//
// Each input byte is one run of a single operation: the low two bits pick
// the operation (0, 1 push — pushes are weighted double so the deque grows
// past its initial buffer — 2 pop, 3 steal) and the upper six bits the run
// length minus one (1..64). Inputs are cut at maxDequeFuzzOps bytes, which
// is ample to grow the buffer several times over and keeps each execution
// (and the engine's minimization) fast. The seed corpus is committed under
// testdata/fuzz/FuzzDequeOps and runs in the ordinary test suite.
func FuzzDequeOps(f *testing.F) {
	const maxDequeFuzzOps = 256
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > maxDequeFuzzOps {
			ops = ops[:maxDequeFuzzOps]
		}
		var d deque
		d.init()
		var model []*Task
		next := 0
		for i, b := range ops {
			op, n := b&3, int(b>>2)+1
			for range n {
				switch op {
				case 0, 1:
					tk := newTestTask(next)
					next++
					d.push(tk)
					model = append(model, tk)
				case 2:
					var want *Task
					if len(model) > 0 {
						want = model[len(model)-1]
						model = model[:len(model)-1]
					}
					if got := d.pop(); got != want {
						t.Fatalf("op %d: pop = %s, want newest %s", i, taskTag(got), taskTag(want))
					}
					if want == nil && d.buf.Load().mask != dequeInitCap-1 {
						t.Fatalf("op %d: empty pop left a %d-slot buffer", i, d.buf.Load().mask+1)
					}
				case 3:
					var want *Task
					if len(model) > 0 {
						want = model[0]
						model = model[1:]
					}
					if got := d.steal(); got != want {
						t.Fatalf("op %d: steal = %s, want oldest %s", i, taskTag(got), taskTag(want))
					}
				}
				if got := d.size(); got != int64(len(model)) {
					t.Fatalf("op %d: size = %d, model holds %d", i, got, len(model))
				}
				if s := d.next.Load(); s != nil && s != model[0] {
					t.Fatalf("op %d: fast slot holds %s, oldest queued is %s", i, taskTag(s), taskTag(model[0]))
				}
			}
		}
	})
}

// taskTag names a test task by the index newTestTask stored in it.
func taskTag(t *Task) string {
	if t == nil {
		return "nil"
	}
	return "task " + strconv.Itoa(int(t.wait.Load()))
}
