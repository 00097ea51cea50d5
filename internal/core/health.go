package core

// Shard health supervision. A fleet shard can stop making progress without
// failing: every worker wedged in a long (or chaos-injected) pause, an OS
// thread descheduled, a body stuck in a syscall. The router's load metric
// cannot tell that from "busy" — liveRoots stays up either way — so a blind
// fleet keeps placing fresh roots on a dead shard.
//
// The supervisor closes that gap with one goroutine per fleet. Workers
// publish a progress epoch (Runtime.progress, bumped in flushStats as
// executed batches are published — amortized, nothing added to the per-task
// path), and the supervisor trips a shard unhealthy when its epoch has not
// moved for StallAfter while its inbox holds work. Unhealthy shards are
// skipped by the router (fleet.go route) and their backlog is pulled over by
// sibling shards — the supervisor nudges parked siblings each tick so the
// cross-shard steal path runs even on an otherwise idle fleet. A shard is
// re-admitted as soon as its epoch moves again, or once it is drained and
// demonstrably responsive (empty inbox and at least one worker idle —
// wedged workers are never idle, so a frozen shard cannot sneak back in).
//
// This file is deliberately not under the //xk:hotpath pragma: the
// supervisor runs a few times per second and may use timers and locks
// freely. Only the flags it flips (unhealthy) are read on the submission
// path, and those are single atomic loads.

import "time"

// HealthConfig tunes the fleet's shard health supervisor.
type HealthConfig struct {
	// Disable turns supervision off entirely (no goroutine, no epoch
	// watching; the router then never diverts).
	Disable bool
	// CheckEvery is the supervisor's polling cadence. Zero selects
	// defaultHealthCheckEvery.
	CheckEvery time.Duration
	// StallAfter is how long a shard may sit on a nonempty inbox without
	// advancing its progress epoch before it is marked unhealthy. Zero
	// selects defaultHealthStallAfter.
	StallAfter time.Duration
}

const (
	defaultHealthCheckEvery = 25 * time.Millisecond
	defaultHealthStallAfter = 400 * time.Millisecond
)

// startHealth launches the supervisor goroutine. Single-shard fleets have no
// sibling to divert to, so they never supervise.
func (f *Fleet) startHealth() {
	if f.cfg.Health.Disable || len(f.shards) < 2 {
		return
	}
	every := f.cfg.Health.CheckEvery
	if every <= 0 {
		every = defaultHealthCheckEvery
	}
	stallAfter := f.cfg.Health.StallAfter
	if stallAfter <= 0 {
		stallAfter = defaultHealthStallAfter
	}
	f.healthStop = make(chan struct{})
	f.healthWG.Add(1)
	go f.supervise(every, stallAfter)
}

// stopHealth stops and joins the supervisor; idempotent via Close's closed
// flag (its only caller).
func (f *Fleet) stopHealth() {
	if f.healthStop == nil {
		return
	}
	close(f.healthStop)
	f.healthWG.Wait()
}

// supervise is the supervisor loop: every tick, checkHealth polls each
// shard's progress epoch and inbox.
func (f *Fleet) supervise(every, stallAfter time.Duration) {
	defer f.healthWG.Done()
	tracks := f.newHealthTracks(time.Now())
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-f.healthStop:
			return
		case <-ticker.C:
		}
		f.checkHealth(tracks, time.Now(), stallAfter)
	}
}

// healthTrack is the supervisor's memory of one shard: the progress epoch
// it last saw, and the last time the shard was observably fine.
type healthTrack struct {
	epoch int64
	since time.Time
}

// newHealthTracks starts tracking every shard at its current epoch, as
// fine at now.
func (f *Fleet) newHealthTracks(now time.Time) []healthTrack {
	tracks := make([]healthTrack, len(f.shards))
	for i, s := range f.shards {
		tracks[i] = healthTrack{epoch: s.progress.Load(), since: now}
	}
	return tracks
}

// checkHealth is one supervisor pass at time now: trip stalled shards
// unhealthy, re-admit recovered ones, and keep siblings pulling a sick
// shard's backlog. Supervisor-only (tracks is its private state).
func (f *Fleet) checkHealth(tracks []healthTrack, now time.Time, stallAfter time.Duration) {
	for i, s := range f.shards {
		tr := &tracks[i]
		epoch := s.progress.Load()
		moved := epoch != tr.epoch
		if moved {
			tr.epoch = epoch
		}
		if moved || s.inbox.size() == 0 {
			// Progressing, or nothing queued that could be starved: the
			// stall clock restarts. An unhealthy shard re-admits on
			// progress, or — for a shard whose backlog was stolen away
			// while its workers stayed frozen — once it is drained AND a
			// worker has demonstrably reached the park path again.
			tr.since = now
			if s.unhealthy.Load() &&
				(moved || (s.inbox.size() == 0 && s.idle.Load() > 0)) {
				s.setHealthy()
			}
			continue
		}
		// Nonempty inbox, epoch frozen.
		if s.unhealthy.Load() {
			f.rescueNudge(s) // keep siblings draining the backlog
			continue
		}
		if now.Sub(tr.since) >= stallAfter {
			s.setUnhealthy()
			f.rescueNudge(s)
		}
	}
}

// rescueNudge wakes a parked worker on every healthy sibling of sick, so the
// cross-shard steal path starts pulling the backlog without waiting for a
// natural wake-up. With stealing disabled there is nothing to nudge — the
// router's diversion is then the whole remedy.
func (f *Fleet) rescueNudge(sick *Runtime) {
	if f.noSteal {
		return
	}
	for _, s := range f.shards {
		if s != sick && !s.unhealthy.Load() && s.idle.Load() > 0 {
			s.maybeWake()
		}
	}
}

// setUnhealthy trips the shard's router-diversion flag; counted once per
// transition. Supervisor-only.
func (rt *Runtime) setUnhealthy() {
	if rt.unhealthy.CompareAndSwap(false, true) {
		rt.healthFlips.Add(1)
	}
}

// setHealthy re-admits the shard; counted once per transition.
func (rt *Runtime) setHealthy() {
	if rt.unhealthy.CompareAndSwap(true, false) {
		rt.healthFlips.Add(1)
	}
}
