package core

import "testing"

// TestStealRequestClaimedCannotBeWithdrawn replays, step by step on one
// goroutine, the interleaving that used to lose a task: a combiner scans a
// victim's request box, the thief gives up and withdraws, then the combiner
// replies with a stolen task. Without the claim the withdrawal succeeded and
// the task was stranded in a request box nobody reads, so its parent frame
// never drained. With it the withdrawal fails and the reply reaches the
// thief.
func TestStealRequestClaimedCannotBeWithdrawn(t *testing.T) {
	rt := newRuntime(Config{Workers: 3}, nil, 0, 0) // never started: the test plays every role
	victim, thief, combiner := rt.workers[0], rt.workers[1], rt.workers[2]
	task := victim.alloc()
	victim.deque.push(task)

	r := &victim.reqs[thief.id]
	r.task = nil
	r.state.Store(reqPosted)
	ids := combiner.claimRequests(victim)
	if len(ids) != 1 || ids[0] != thief.id {
		t.Fatalf("claimed slots %v, want [%d]", ids, thief.id)
	}
	if r.state.CompareAndSwap(reqPosted, reqEmpty) {
		t.Fatal("thief withdrew a request the combiner had claimed")
	}
	combiner.combineServe(victim, ids)
	if st := r.state.Load(); st != reqReplied || r.task != task {
		t.Fatalf("request state=%d task=%p after serving, want reqReplied with the stolen task %p", st, r.task, task)
	}

	// An unclaimed request is still withdrawable, and a combiner that scans
	// afterwards finds nothing to answer.
	r.task = nil
	r.state.Store(reqPosted)
	if !r.state.CompareAndSwap(reqPosted, reqEmpty) {
		t.Fatal("thief could not withdraw an unclaimed request")
	}
	if ids := combiner.claimRequests(victim); len(ids) != 0 {
		t.Fatalf("combiner claimed withdrawn slots %v", ids)
	}
}
