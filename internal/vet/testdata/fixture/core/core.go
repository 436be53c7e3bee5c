// Package core exercises ctxpoll rule 2: unbounded wait loops must poll
// interruption.
package core

import (
	"context"
	"time"
)

type runtime struct {
	Interrupt func() error
}

func (r *runtime) phase() int { return 0 }

func waitDeaf(ch chan int) {
	for { //!want ctxpoll
		select {
		case <-ch:
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
}

func waitPolling(r *runtime, ch chan int) {
	for {
		if r.Interrupt() != nil {
			return
		}
		select {
		case <-ch:
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
}

func waitCtx(ctx context.Context, ch chan int) {
	for ctx.Err() == nil {
		select {
		case <-ch:
			return
		default:
		}
	}
}

func waitPhase(r *runtime, ch chan int) {
	for {
		if r.phase() == 1 {
			return
		}
		<-ch
	}
}

type thread struct{ r *runtime }

func (t *thread) park(state int) {}

func parkDeaf(t *thread) {
	for { //!want ctxpoll
		t.park(1)
	}
}

func parkPhase(t *thread) {
	for {
		if t.r.phase() == 1 {
			return
		}
		t.park(1)
	}
}

func waitBounded(ch chan int) {
	for i := 0; i < 10; i++ {
		<-ch
	}
}

func waitAnnotated(ch chan int) {
	for { //ir:nopoll fixture: the protocol itself wakes and ends this wait
		if <-ch == 0 {
			return
		}
	}
}

func noBlocking(n int) int {
	total := 0
	for n > 0 {
		total += n
		n--
	}
	return total
}
