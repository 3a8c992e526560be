package entropyd

import (
	"context"
	"errors"
	"sync"
	"time"
)

// pollInterval is how long the consumer sleeps waiting for production
// to catch up — short, because it sits on the request latency path.
const pollInterval = 100 * time.Microsecond

// idlePoll is the producer's sleep when it has nothing to do — a full
// ring (raw mode) or a full tap of an assessed epoch (DRBG mode): an
// idle daemon then costs ~1k wakeups/s/shard, and the latency cost is
// nil — a full ring has at least one whole block buffered ahead of the
// consumer, a full tap many seed draws.
const idlePoll = time.Millisecond

// Serve switches the pool into daemon mode: one producer goroutine per
// shard keeps the shard's ring topped up with gated bytes, quarantined
// shards recalibrate themselves with backoff, and consumers drain the
// rings through ReadBuffered. Serve returns immediately; production
// stops — and the pool returns to batch mode — when ctx is cancelled
// or Stop is called, whichever comes first.
//
// Batch mode (Fill/Read/Recalibrate) is unavailable while serving.
func (p *Pool) Serve(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serving.Swap(true) {
		return errors.New("entropyd: already serving")
	}
	ctx, cancel := context.WithCancel(ctx)
	p.stop = cancel
	// Session-local shutdown: wait out this session's producers, hand
	// the rotation cursor back, and reopen batch mode — exactly once,
	// whether the session ends by Stop or by context cancellation.
	wg := new(sync.WaitGroup)
	var once sync.Once
	finish := func() {
		once.Do(func() {
			wg.Wait()
			p.serving.Store(false)
		})
	}
	p.finish = finish
	for _, s := range p.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			p.runShard(ctx, s)
		}(s)
	}
	go func() {
		<-ctx.Done()
		finish()
	}()
	return nil
}

// Stop halts serve mode and waits for the producer goroutines; the
// pool then accepts batch calls again (shard streams continue where
// the rings left off). Redundant after a context cancellation, but
// harmless.
func (p *Pool) Stop() {
	p.mu.Lock()
	stop, finish := p.stop, p.finish
	p.mu.Unlock()
	if stop == nil {
		return
	}
	stop()
	finish() // blocks until the (possibly concurrent) shutdown completed
}

// runShard is a shard's producer loop: recalibrate with backoff while
// quarantined; while healthy, keep the output ring full (raw mode) or,
// for a tapped pool (DRBG mode, no ring), produce on demand. A tapped
// shard gates one raw chunk per step — through the tot test, the
// thermal monitor, the streaming tracker and the assessment collector,
// into the tap — only while its epoch lacks a completed assessment or
// its tap has room for the chunk, and sleeps otherwise. Seed draws
// make the room, so physics is paid for bits a seed can use, every one
// of them tested; an idle DRBG daemon costs wakeups, not cores. Every
// wait reuses the goroutine's one timer.
func (p *Pool) runShard(ctx context.Context, s *Shard) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	sleep := func(d time.Duration) bool {
		timer.Reset(d)
		select {
		case <-ctx.Done():
			return false
		case <-timer.C:
			return true
		}
	}
	chunk := make([]byte, fillBlock)
	dry := 0 // consecutive tapped steps that gated no bits
	for ctx.Err() == nil {
		switch s.State() {
		case StateHealthy:
			// Injected alarms must land even when the shard is idle and
			// produce() (the other check site) never runs — an idle
			// daemon still honors the operator drill.
			if s.injected.Swap(false) {
				s.quarantine(ReasonInjected)
				continue
			}
			if s.tap != nil {
				if !s.wantsChunk() {
					if !sleep(idlePoll) {
						return
					}
					continue
				}
				s.nextGated(&dry) // the tap takes the chunk; gated bits are dropped
				continue
			}
			free := s.ring.free()
			if free == 0 {
				if !sleep(idlePoll) {
					return
				}
				continue
			}
			if free > len(chunk) {
				free = len(chunk)
			}
			n := s.produce(chunk[:free])
			// An alarm mid-produce already drained the ring; the
			// bytes produced just before it are equally suspect
			// and must not be pushed.
			if n > 0 && s.State() == StateHealthy {
				s.ring.push(chunk[:n])
			}
		case StateQuarantined:
			if !sleep(p.cfg.Health.RecalibrateBackoff) {
				return
			}
			s.recalibrate()
		default:
			if !sleep(pollInterval) {
				return
			}
		}
	}
}

// ReadBuffered moves up to len(dst) bytes from the shard rings into
// dst, waiting up to `wait` for production to catch up, and returns
// the byte count; (0, ErrStarved) when nothing could be served within
// the deadline. A tapped pool has no rings and fails at once with
// ErrTapped.
//
// Consumption follows the same deterministic rotation as Fill — blocks
// of fillBlock bytes taken round-robin from the healthy shards, each
// block drained from its shard's ring in order — so in the healthy
// steady state the buffered stream is bit-identical to the Fill stream
// of an identically configured pool. When the current shard drops out
// mid-block (its ring was drained at quarantine), the rotation moves
// on to the next healthy shard, which starts a fresh full block;
// re-admitted shards rejoin the rotation at their next turn.
func (p *Pool) ReadBuffered(dst []byte, wait time.Duration) (int, error) {
	if p.cfg.SeedTapBytes > 0 {
		return 0, ErrTapped
	}
	if !p.serving.Load() {
		return 0, ErrNotServing
	}
	if len(dst) == 0 {
		return 0, nil
	}
	p.consMu.Lock()
	defer p.consMu.Unlock()
	// The wait budget starts once the consumer is in service, so
	// requests queued behind a slow one are not pre-starved by lock
	// wait (the daemon bounds the queue separately).
	deadline := time.Now().Add(wait)
	n := 0
	for n < len(dst) {
		if !p.serving.Load() {
			// Stop() is waiting on consMu; hand the cursor back.
			break
		}
		s := p.shards[p.rrShard]
		if s.State() != StateHealthy {
			if !p.nextHealthy(true) {
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(pollInterval)
			}
			continue
		}
		want := len(dst) - n
		if want > p.rrLeft {
			want = p.rrLeft
		}
		got := s.ring.pop(dst[n : n+want])
		n += got
		p.rrLeft -= got
		if p.rrLeft == 0 {
			p.nextHealthy(false)
		}
		if got == 0 {
			// Healthy but the producer is behind: the rotation
			// waits for THIS shard (that is what keeps the
			// interleave deterministic) until the deadline.
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(pollInterval)
		}
	}
	p.bytesOut.Add(uint64(n))
	if n == 0 {
		return 0, ErrStarved
	}
	return n, nil
}

// nextHealthy advances the rotation cursor to the next healthy shard
// and resets the block budget. With skipCurrent the current shard is
// excluded (it just dropped out). Reports whether a healthy shard was
// found; on failure the cursor is left in place.
func (p *Pool) nextHealthy(skipCurrent bool) bool {
	k := len(p.shards)
	for d := 1; d <= k; d++ {
		i := (p.rrShard + d) % k
		if i == p.rrShard && skipCurrent {
			continue
		}
		if p.shards[i].State() == StateHealthy {
			p.rrShard = i
			p.rrLeft = fillBlock
			return true
		}
	}
	return false
}
