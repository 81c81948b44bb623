// Package lockfix is the lockcheck fixture: blocking operations under a
// shard-style mutex and lock-order inversions (observed or against a
// declared order) must report; TryLock back-off and post-unlock operations
// must stay clean.
package lockfix

import (
	"sync"
	"time"
)

type shard struct {
	mu sync.Mutex
	ch chan int
	q  []int
}

func sendUnderLock(s *shard) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding shard.mu`
	s.mu.Unlock()
}

func sendAfterUnlock(s *shard) {
	s.mu.Lock()
	s.q = append(s.q, 1)
	s.mu.Unlock()
	s.ch <- 1 // ok: the lock was dropped first
}

func sleepUnderDeferredUnlock(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding shard.mu`
}

func recvInBranchUnderLock(s *shard, cond bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond {
		<-s.ch // want `channel receive while holding shard.mu`
	}
}

func unlockedBranchReturns(s *shard, cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		<-s.ch // ok: this arm released the lock
		return
	}
	s.mu.Unlock()
}

func waiver(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 //lint:allow lockcheck buffered cap-1 channel with exactly-one-send protocol
}

func trySweep(s *shard, others []*shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range others {
		if !o.mu.TryLock() { // ok: TryLock backs off, it cannot deadlock
			continue
		}
		o.q = append(o.q, s.q...)
		o.mu.Unlock()
	}
}

func selectUnderLock(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while holding shard.mu`
	case v := <-s.ch:
		_ = v
	}
}

func selectWithDefault(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // ok: default makes it non-blocking
	case v := <-s.ch:
		_ = v
	default:
	}
}

type flusher struct{}

func (flusher) Flush() {}

func flushUnderLock(s *shard, f flusher) {
	s.mu.Lock()
	f.Flush() // want `Flush call while holding shard.mu`
	s.mu.Unlock()
}

func waitUnderLock(s *shard, wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want `Wait call while holding shard.mu`
	s.mu.Unlock()
}

func goroutineRunsUnlocked(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // ok: the goroutine body does not hold this frame's lock
	}()
}

type engine struct{ mu sync.Mutex }

type cacher struct{ mu sync.Mutex }

func orderEngineThenCacher(e *engine, c *cacher) {
	e.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	e.mu.Unlock()
}

func orderCacherThenEngine(e *engine, c *cacher) {
	c.mu.Lock()
	e.mu.Lock() // want `lock order inverted`
	e.mu.Unlock()
	c.mu.Unlock()
}

func doubleLock(s *shard) {
	s.mu.Lock()
	s.mu.Lock() // want `while the same lock is already held`
	s.mu.Unlock()
	s.mu.Unlock()
}

// The shard → accum order is only ever taken across a call (the accumulator
// locks itself inside park), so it is declared rather than observed.
//
//joinopt:lockorder shard.mu accum.mu
type accum struct {
	mu sync.Mutex
	q  []int
}

func (a *accum) park(v int) {
	a.mu.Lock()
	a.q = append(a.q, v)
	a.mu.Unlock()
}

func declaredOrderAcrossCall(s *shard, a *accum) {
	s.mu.Lock()
	a.park(1) // ok: the declared order, taken in the callee
	s.mu.Unlock()
}

func declaredOrderInline(s *shard, a *accum) {
	s.mu.Lock()
	a.mu.Lock() // ok: the declared order
	a.mu.Unlock()
	s.mu.Unlock()
}

func againstDeclaredOrder(s *shard, a *accum) {
	a.mu.Lock()
	s.mu.Lock() // want `against the order declared`
	s.mu.Unlock()
	a.mu.Unlock()
}
