package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer wakes the open-loop dispatcher close to each due instant.
// The runtime's timers wake an idle process up to a millisecond late (the
// network poller's epoll timeout is whole milliseconds), so at 2,000
// requests a second they release requests in bunches that contend for
// the two CPUs: with them alone, warm-mix's p50 read 3–30% higher in each
// of four paired runs, and its ladder limit spread wider. A timerfd(2)
// watched by the poller wakes an idle process within tens of
// microseconds, but a busy one only when a scheduler slot next polls the
// network. Busy slots check runtime timers on every goroutine switch, so
// the timer waits on both and takes whichever fires first.
type preciseTimer struct {
	fd   uintptr
	f    *os.File      // nil when timerfd is unavailable
	rt   *time.Timer   // the runtime timer
	fire chan struct{} // timerfd expirations, forwarded by the reader goroutine
	done chan struct{} // closed when the reader goroutine has exited
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPreciseTimer() *preciseTimer {
	p := &preciseTimer{rt: time.NewTimer(time.Hour), fire: make(chan struct{}, 1), done: make(chan struct{})}
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		close(p.done)
		return p
	}
	p.fd, p.f = fd, os.NewFile(fd, "timerfd")
	go func() {
		defer close(p.done)
		var buf [8]byte
		for {
			if _, err := p.f.Read(buf[:]); err != nil {
				return // closed
			}
			select {
			case p.fire <- struct{}{}:
			default:
			}
		}
	}()
	return p
}

// sleepUntil returns at t, or at once if t has passed. An expiration left
// over from an earlier wait only makes it look at the clock again. Waits
// shorter than 200µs, which come at high rates when the process is busy
// and runtime timers are prompt, skip the timerfd and its syscall.
func (p *preciseTimer) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if p.f != nil && d >= 200*time.Microsecond {
			spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
			// A failed arm leaves the runtime timer to wake us.
			syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		}
		p.rt.Reset(d)
		select {
		case <-p.rt.C:
		case <-p.fire:
		}
	}
}

// close releases the timerfd and waits for its reader to exit.
func (p *preciseTimer) close() {
	p.rt.Stop()
	if p.f != nil {
		p.f.Close()
	}
	<-p.done
}
