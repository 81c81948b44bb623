package sim

import "fmt"

// Resource models a k-server FCFS service center (CPU cores, a disk channel,
// a NIC direction). Work scheduled on a Resource is assigned to the server
// that frees up earliest; the resource records utilization statistics.
//
// Resource deliberately has no explicit queue of waiting jobs: Schedule
// reserves future capacity immediately, which for FCFS service with
// deterministic service times is equivalent to queueing and much cheaper to
// simulate.
type Resource struct {
	k       *Kernel
	name    string
	servers []Time // freeAt per server, a binary min-heap

	busy      Duration // total busy server-seconds
	jobs      uint64
	lastFree  Time // latest completion scheduled so far
	createdAt Time
}

// NewResource creates a resource with the given number of identical servers.
func NewResource(k *Kernel, name string, servers int) *Resource {
	if servers <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs at least one server", name))
	}
	r := &Resource{k: k, name: name, createdAt: k.Now()}
	r.servers = make([]Time, servers) // all free at 0: already a heap
	return r
}

// Name returns the resource name given at construction.
func (r *Resource) Name() string { return r.name }

// Servers returns the number of servers.
func (r *Resource) Servers() int { return len(r.servers) }

// Schedule reserves the earliest available server for d seconds of service
// and fires done (if non-nil) at the completion time, which is Now() when
// done fires. It returns the (start, end) times of the service interval.
// Zero-duration work completes at max(now, earliest free) with no capacity
// consumed.
func (r *Resource) Schedule(d Duration, done Handler) (start, end Time) {
	return r.ScheduleAfter(r.k.Now(), d, done)
}

// ScheduleAfter is like Schedule but the service cannot start before t.
// It is used for work whose input only becomes available at t.
func (r *Resource) ScheduleAfter(t Time, d Duration, done Handler) (start, end Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative service time %v on %q", d, r.name))
	}
	start = r.servers[0]
	if now := r.k.Now(); now > start {
		start = now
	}
	if t > start {
		start = t
	}
	end = start + d
	r.servers[0] = end
	r.siftDown()
	r.busy += d
	r.jobs++
	if end > r.lastFree {
		r.lastFree = end
	}
	if done != nil {
		r.k.Post(end, done)
	}
	return start, end
}

// siftDown restores the server heap after its root (the server just
// reserved) moved later. The servers are identical, so only the multiset of
// free times matters, never which server holds which.
func (r *Resource) siftDown() {
	h := r.servers
	n := len(h)
	v := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if rc := c + 1; rc < n && h[rc] < h[c] {
			c = rc
		}
		if !(h[c] < v) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// EarliestFree returns the earliest time at which a server is (or becomes)
// available, never earlier than now.
func (r *Resource) EarliestFree() Time {
	t := r.servers[0]
	if now := r.k.Now(); now > t {
		return now
	}
	return t
}

// BusyTime returns the accumulated busy server-seconds.
func (r *Resource) BusyTime() Duration { return r.busy }

// Jobs returns the number of jobs scheduled so far.
func (r *Resource) Jobs() uint64 { return r.jobs }

// Utilization returns busy server-seconds divided by elapsed capacity
// (servers x (horizon - creation)). horizon is typically the makespan.
func (r *Resource) Utilization(horizon Time) float64 {
	elapsed := horizon - r.createdAt
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(elapsed) * float64(len(r.servers)))
}

// Backlog returns how far in the future the most loaded reservation extends,
// i.e. lastScheduledCompletion - now, clamped at zero. It is a cheap proxy
// for queue length used by load metrics.
func (r *Resource) Backlog() Duration {
	b := r.lastFree - r.k.Now()
	if b < 0 {
		return 0
	}
	return b
}
