//go:build !linux

package main

import "time"

// preciseTimer falls back to the runtime's timers where timerfd(2) is
// unavailable.
type preciseTimer struct{}

func newPreciseTimer() *preciseTimer { return &preciseTimer{} }

func (p *preciseTimer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func (p *preciseTimer) close() {}
