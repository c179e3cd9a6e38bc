// Package pipesync is the analysistest fixture for the pipesync analyzer.
package pipesync

import "sync"

// AddInside calls WaitGroup.Add inside the goroutine — flagged.
func AddInside(n int, work func(int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		s := s
		go func() {
			wg.Add(1) // want `WaitGroup.Add inside the spawned goroutine`
			defer wg.Done()
			work(s)
		}()
	}
	wg.Wait()
}

// SendLocked sends on a channel while holding the mutex — flagged.
type SendLocked struct {
	mu  sync.Mutex
	out chan int
	seq int
}

// Emit publishes the next sequence number.
func (s *SendLocked) Emit() {
	s.mu.Lock()
	s.seq++
	s.out <- s.seq // want `channel send while holding a mutex`
	s.mu.Unlock()
}

// EmitDeferred holds the lock via defer across the send — flagged.
func (s *SendLocked) EmitDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.out <- s.seq // want `channel send while holding a mutex`
}

// EmitAfterUnlock computes under the lock and sends after releasing — not
// flagged.
func (s *SendLocked) EmitAfterUnlock() {
	s.mu.Lock()
	s.seq++
	v := s.seq
	s.mu.Unlock()
	s.out <- v
}

// LaunchExplicit Adds before launching — the approved executor pattern, not
// flagged.
func LaunchExplicit(n int, work func(int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			work(s)
		}(s)
	}
	wg.Wait()
}

// StageNaked runs a pipeline stage with naked channel ops — both flagged:
// if the peer stage panics, the receive (or send) blocks forever and the
// parent's wg.Wait deadlocks.
func StageNaked(in, out chan int, work func(int) int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := <-in      // want `naked channel receive in a goroutine`
		out <- work(x) // want `naked channel send in a goroutine`
	}()
	wg.Wait()
}

// StageCancellable wraps every channel op in a select with the iteration's
// done channel — the approved executor pattern, not flagged.
func StageCancellable(in, out chan int, done chan struct{}, work func(int) int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var x int
		select {
		case x = <-in:
		case <-done:
			return
		}
		select {
		case out <- work(x):
		case <-done:
			return
		}
	}()
	wg.Wait()
}

// ParentNaked performs channel ops in the parent function, which owns the
// goroutine lifecycle — not flagged (the rule scopes to goroutine bodies).
func ParentNaked(in, out chan int, work func(int) int) {
	x := <-in
	out <- work(x)
}

// CloseInGoroutine closes a completion channel from a helper goroutine —
// not flagged (close never blocks).
func CloseInGoroutine(wg *sync.WaitGroup) chan struct{} {
	waited := make(chan struct{})
	go func() {
		wg.Wait()
		close(waited)
	}()
	return waited
}
